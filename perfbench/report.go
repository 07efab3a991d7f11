package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number. Samples is the count behind a timing
// (0 where the value is a count or a ratio); P99 rides along with a p50.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	P99     float64
	Note    string
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Problems  []string // failed correctness checks
	Metrics   []metric
	Notes     []string
}

func (r *result) add(m metric) { r.Metrics = append(r.Metrics, m) }

func (r *result) fail(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the definition numpy calls "linear"); xs is sorted in
// place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usOf converts nanosecond durations to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e3
	}
	return out
}

// timing is a p50 metric over samples in microseconds, with its p99.
func timing(name string, us []float64) metric {
	m := metric{Name: name, Unit: "us", Samples: len(us)}
	if len(us) > 0 {
		m.P99 = quantile(us, 0.99)
		m.Value = quantile(us, 0.5)
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauseNs             uint64
}

// settle collects what earlier set-ups left behind and returns it to the
// OS, so neither the timed window nor peak RSS inherits their garbage.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     uint64(b.NumGC - a.NumGC),
		pauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

func (d memDelta) plus(e memDelta) memDelta {
	return memDelta{d.mallocs + e.mallocs, d.bytes + e.bytes, d.gcs + e.gcs, d.pauseNs + e.pauseNs}
}

func (d memDelta) metrics(ops int) []metric {
	return []metric{
		{Name: "runtime.allocs_per_op", Value: ratio(float64(d.mallocs), float64(ops)), Unit: "count"},
		{Name: "runtime.alloc_bytes_per_op", Value: ratio(float64(d.bytes), float64(ops)), Unit: "B"},
		{Name: "runtime.gc_cycles", Value: float64(d.gcs), Unit: "count"},
		{Name: "runtime.gc_pause_ms", Value: float64(d.pauseNs) / 1e6, Unit: "ms"},
	}
}

// print writes the human-readable table, then the one-line JSON result
// summary as the last line, keeping only the names in keep.
func (r *result) print(w io.Writer, keep []string) error {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%-34s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
			if m.P99 > 0 {
				line += fmt.Sprintf(" p99=%.1f", m.P99)
			}
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]jm)}
	for _, name := range keep {
		m, ok := r.get(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = jm{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
