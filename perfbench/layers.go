package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"gospaces/internal/metrics"
)

// traceView holds the spans of a set of actors that belong to root ops run
// inside a window, each with its self time.
type traceView struct {
	spans []span
	self  []int64
	chk   treeCheck
}

func collect(actors []*actor, from, to int64) traceView {
	var v traceView
	for _, a := range actors {
		ss := a.snapshot()
		self := selfTimes(ss, from, to, &v.chk)
		for i, s := range ss {
			if self[i] >= 0 {
				v.spans = append(v.spans, s)
				v.self = append(v.self, self[i])
			}
		}
	}
	return v
}

type spanFilter func(s span) bool

func (v traceView) count(keep spanFilter) int {
	n := 0
	for _, s := range v.spans {
		if keep(s) {
			n++
		}
	}
	return n
}

// durs returns the matching spans' durations in microseconds.
func (v traceView) durs(keep spanFilter) []float64 {
	var out []float64
	for _, s := range v.spans {
		if keep(s) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfs returns the matching spans' self times in microseconds.
func (v traceView) selfs(keep spanFilter) []float64 {
	var out []float64
	for i, s := range v.spans {
		if keep(s) {
			out = append(out, float64(v.self[i])/1e3)
		}
	}
	return out
}

// at matches spans at depth d whose method is one of methods (any method
// when none is given) and whose outcome is not a failure; okOnly further
// drops misses.
func at(d int8, okOnly bool, methods ...string) spanFilter {
	return func(s span) bool {
		if s.depth != d || s.outcome == outFail || (okOnly && s.outcome != outOK) {
			return false
		}
		if len(methods) == 0 {
			return true
		}
		for _, m := range methods {
			if s.method == m {
				return true
			}
		}
		return false
	}
}

// set overwrites (or adds) a metric by name.
func (r *result) set(m metric) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == m.Name {
			if m.Unit == "" {
				m.Unit = r.Metrics[i].Unit
			}
			r.Metrics[i] = m
			return
		}
	}
	r.add(m)
}

func (r *result) setTiming(name string, us []float64) {
	r.set(timing(name, us))
}

func (r *result) setValue(name string, v float64) {
	r.set(metric{Name: name, Value: v})
}

// addLayerDefaults adds every per-layer metric at zero, so a layer a
// workload bypasses reads zero calls.
func (r *result) addLayerDefaults() {
	for _, m := range perLayer {
		r.add(metric{Name: m.Name, Unit: m.Unit})
	}
}

// rpcAndServer sets the transport and service rows from the client RPC
// spans and the server handler times. Wire time is joined per method in
// aggregate: the median RPC time minus the median handler time, weighted
// by the method's call count.
func rpcAndServer(r *result, v traceView, rootOps int, server map[string][]int64) {
	var rpc []float64
	per := make(map[string][]float64)
	errs := 0
	for _, s := range v.spans {
		if s.layer != layerTransport {
			continue
		}
		if s.outcome == outFail {
			errs++
			continue
		}
		d := float64(s.dur()) / 1e3
		rpc = append(rpc, d)
		per[s.method] = append(per[s.method], d)
	}
	r.setTiming("transport.rpc_p50_us", rpc)
	m, _ := r.get("transport.rpc_p50_us")
	r.set(metric{Name: "transport.rpc_p99_us", Value: m.P99, Samples: m.Samples})
	r.setValue("transport.calls_per_op", ratio(float64(len(rpc)+errs), float64(rootOps)))
	r.setValue("transport.errors", float64(errs))

	var all []float64
	var wire, weight float64
	for method, ds := range server {
		us := usOf(ds)
		all = append(all, us...)
		if c := per[method]; len(c) > 0 && len(us) > 0 {
			wire += float64(len(c)) * (median(c) - median(us))
			weight += float64(len(c))
		}
	}
	r.set(metric{Name: "transport.wire_p50_us", Value: ratio(wire, weight), Samples: int(weight),
		Note: "per method, in aggregate: server spans cannot carry the client's op id"})
	r.setTiming("space.service_p50_us", all)
	m, _ = r.get("space.service_p50_us")
	r.set(metric{Name: "space.service_p99_us", Value: m.P99, Samples: m.Samples})
}

// treeRows sets the self-time consistency rows.
func treeRows(r *result, c treeCheck) {
	r.setValue("trace.ops_checked", float64(c.ops))
	r.set(metric{Name: "trace.untraced_frac", Value: ratio(float64(c.shortfall), float64(c.rootNs)),
		Note: "root time that no layer's self time accounts for"})
	r.set(metric{Name: "trace.overlap_frac", Value: ratio(float64(c.overlap), float64(c.rootNs)),
		Note: "self time of concurrent children (router scatter) counted more than once"})
	if c.shortfall != 0 {
		r.fail("trace: layers' self times fall %d ns short of their root spans", c.shortfall)
	}
}

// overheadRows sets traced ÷ untraced for every end-to-end metric.
func overheadRows(r *result, traced *result) {
	for _, m := range endToEnd {
		u, ok1 := r.get(m.Name)
		t, ok2 := traced.get(m.Name)
		if ok1 && ok2 {
			r.setValue("trace.overhead."+m.Name, ratio(t.Value, u.Value))
		}
	}
}

// histDelta is the part of a WAL histogram recorded between two snapshots.
type histDelta struct {
	counts [65]uint64
	n      uint64
}

func deltaOf(a, b metrics.HistogramSnapshot) histDelta {
	var d histDelta
	for i := range d.counts {
		d.counts[i] = b.Counts[i] - a.Counts[i]
		d.n += d.counts[i]
	}
	return d
}

// quantileUs interpolates the q-quantile inside its power-of-two bucket
// (bucket i holds [2^(i-1), 2^i) ns), in microseconds.
func (d histDelta) quantileUs(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	rank := q * float64(d.n)
	var cum float64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := 0.0, 0.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return (lo + (hi-lo)*(rank-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	return 0
}

// writeSpans dumps every actor's spans as tab-separated rows.
func writeSpans(path string, actors []*actor) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "actor\top\tspan\tparent\tdepth\tlayer\tmethod\toutcome\tstart_ns\tend_ns")
	for _, a := range actors {
		for i, s := range a.snapshot() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
				a.name, s.op, i, s.parent, s.depth, s.layer, s.method, s.outcome, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobTimes cuts each actor's root ops inside the window into consecutive
// jobs of n ops and returns each full job's wall time in seconds.
func jobTimes(actors []*actor, from, to int64, n int) []float64 {
	var out []float64
	for _, a := range actors {
		var roots []span
		for _, s := range a.snapshot() {
			if s.depth == 0 && s.end != 0 && s.start >= from && s.end <= to {
				roots = append(roots, s)
			}
		}
		sort.Slice(roots, func(i, j int) bool { return roots[i].start < roots[j].start })
		for i := 0; i+n <= len(roots); i += n {
			out = append(out, float64(roots[i+n-1].end-roots[i].start)/1e9)
		}
	}
	return out
}
