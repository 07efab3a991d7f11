package main

import (
	"path/filepath"
	"strconv"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
)

// opsRound is one deployment of an op workload, measured for its share of
// the window, with the counters read around that share.
type opsRound struct {
	d        *opsDeploy
	run      opsRun
	mem      memDelta
	adm0     space.AdmissionVitals
	adm1     space.AdmissionVitals
	ts0      tuplespace.Stats
	ts1      tuplespace.Stats
	app0     metrics.HistogramSnapshot
	app1     metrics.HistogramSnapshot
	syn0     metrics.HistogramSnapshot
	syn1     metrics.HistogramSnapshot
	bytes    int64
	server   map[string][]int64
	recovery time.Duration
}

// runOpsRounds sets the workload up n times and measures each deployment
// for window/n, checking its outputs into res. Spreading the window over
// fresh deployments keeps one deployment's luck (how its goroutines and
// connections happen to settle) from deciding a whole run.
func runOpsRounds(cfg opsConfig, seed int64, window time.Duration, traced bool, n int, sz sizes, clk epoch, res *result) ([]*opsRound, error) {
	var rounds []*opsRound
	for i := 0; i < n; i++ {
		settle()
		d, err := setupOps(cfg, seed, sz.workDir, traced, clk)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, measureOps(d, seed, window/time.Duration(n), clk, res))
	}
	return rounds, nil
}

func measureOps(d *opsDeploy, seed int64, window time.Duration, clk epoch, res *result) *opsRound {
	defer d.close()
	p := &opsRound{d: d}
	p.adm0, p.ts0 = d.svc.Admission().Vitals(), d.local.TS.Stats()
	p.app0, p.syn0 = d.appendHist.Snapshot(), d.syncHist.Snapshot()
	b0 := d.walBytes.Load()
	d.srvTap.reset()
	settle()
	m0 := readMem()
	p.run = runOps(d, seed, window, clk)
	p.mem = diffMem(m0, readMem())
	p.adm1, p.ts1 = d.svc.Admission().Vitals(), d.local.TS.Stats()
	p.app1, p.syn1 = d.appendHist.Snapshot(), d.syncHist.Snapshot()
	p.bytes = d.walBytes.Load() - b0
	if d.srvTap != nil {
		p.server = d.srvTap.durations()
	}
	p.recovery = checkOps(d, p.run, res)
	tot := p.run.total()
	res.Attempted += tot.attempted()
	res.Failed += tot.failed
	return p
}

// opsE2E sets the end-to-end rows from the clients' root spans, pooled
// over the rounds.
func opsE2E(r *result, rounds []*opsRound) {
	var setups, all, writes, takes, reads, jobs []float64
	var elapsed time.Duration
	failed, attempted := 0, 0
	for _, p := range rounds {
		v := collect(p.d.actors, p.run.from, p.run.to)
		setups = append(setups, p.d.setup.Seconds())
		all = append(all, v.durs(at(0, false))...)
		writes = append(writes, v.durs(at(0, false, "Write"))...)
		takes = append(takes, v.durs(at(0, false, "TakeIfExists"))...)
		reads = append(reads, v.durs(at(0, false, "ReadIfExists"))...)
		jobs = append(jobs, jobTimes(p.d.actors, p.run.from, p.run.to, p.d.cfg.jobOps)...)
		elapsed += p.run.elapsed
		t := p.run.total()
		failed += t.failed
		attempted += t.attempted()
	}
	r.set(metric{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)})
	r.set(metric{Name: "ops_per_s", Value: float64(len(all)) / elapsed.Seconds(), Unit: "ops/s", Samples: len(all)})
	op := timing("op_p50_us", all)
	r.set(op)
	r.set(metric{Name: "op_p99_us", Value: op.P99, Unit: "us", Samples: op.Samples})
	r.setTiming("write_p50_us", writes)
	r.setTiming("take_p50_us", takes)
	r.setTiming("read_p50_us", reads)
	r.set(metric{Name: "job_s", Value: median(jobs), Unit: "s", Samples: len(jobs),
		Note: "op workloads: one job is " + strconv.Itoa(rounds[0].d.cfg.jobOps) + " consecutive ops of one client"})
	r.set(metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"})
	r.set(metric{Name: "error_rate", Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", Samples: attempted,
		Note: "also the JSON failed/attempted"})
}

// benchOps runs space-ops or durable-ops.
func benchOps(cfg opsConfig, seed int64, window time.Duration, traced bool, sz sizes) (*result, error) {
	res := &result{}
	clk := epoch{t0: time.Now()}
	n := sz.setups
	if traced {
		n = 1
	}
	u, err := runOpsRounds(cfg, seed, window, false, n, sz, clk, res)
	if err != nil {
		return nil, err
	}
	opsE2E(res, u)
	if traced {
		ts, err := runOpsRounds(cfg, seed, window, true, 1, sz, clk, res)
		if err != nil {
			return nil, err
		}
		opsLayers(res, ts[0], u)
		tr := &result{}
		opsE2E(tr, ts)
		overheadRows(res, tr)
		name := "space-ops"
		if cfg.durable {
			name = "durable-ops"
		}
		if err := writeSpans(filepath.Join(sz.workDir, "spans-"+name+".tsv"), ts[0].d.actors); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes,
			"per-layer rows come from the traced run; end-to-end rows from the untraced run before it",
			"server handler spans are joined to client RPC spans per method in aggregate, not per op",
			"spans written to "+filepath.Join(sz.workDir, "spans-"+name+".tsv"))
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// opsLayers sets the per-layer rows of an op workload from its traced
// round t; the runtime rows come from the untraced rounds u.
func opsLayers(r *result, t *opsRound, u []*opsRound) {
	r.addLayerDefaults()
	v := collect(t.d.actors, t.run.from, t.run.to)
	roots := v.count(at(0, false))
	rpcAndServer(r, v, roots, t.server)
	r.setTiming("space.read_p50_us", v.durs(at(0, false, "ReadIfExists")))
	r.setValue("space.admitted", float64(t.adm1.Admitted-t.adm0.Admitted))
	r.setValue("space.rejected", float64(t.adm1.Rejected-t.adm0.Rejected))
	tsRows(r, t.ts0, t.ts1)
	if t.d.cfg.durable {
		app, syn := deltaOf(t.app0, t.app1), deltaOf(t.syn0, t.syn1)
		r.set(metric{Name: "wal.append_p50_us", Value: app.quantileUs(0.5), Samples: int(app.n)})
		r.set(metric{Name: "wal.append_p99_us", Value: app.quantileUs(0.99), Samples: int(app.n)})
		r.set(metric{Name: "wal.fsync_p50_us", Value: syn.quantileUs(0.5), Samples: int(syn.n)})
		r.set(metric{Name: "wal.fsync_p99_us", Value: syn.quantileUs(0.99), Samples: int(syn.n)})
		mutations := (t.ts1.Writes - t.ts0.Writes) + (t.ts1.Takes - t.ts0.Takes)
		r.setValue("wal.fsyncs_per_mutation", ratio(float64(syn.n), float64(mutations)))
		r.set(metric{Name: "wal.bytes_per_user_byte", Value: ratio(float64(t.bytes), float64(t.run.total().writtenBytes)),
			Note: "WAL bytes written ÷ payload bytes of the entries written"})
		r.setValue("wal.recovery_s", t.recovery.Seconds())
	}
	treeRows(r, v.chk)
	var mem memDelta
	ops := 0
	for _, p := range u {
		mem = mem.plus(p.mem)
		ops += p.run.total().attempted()
	}
	for _, m := range mem.metrics(ops) {
		r.set(m)
	}
}

// tsRows sets the tuplespace rows from Stats read around the window.
func tsRows(r *result, a, b tuplespace.Stats) {
	r.setValue("tuplespace.entries_live", float64(b.EntriesLive))
	r.setValue("tuplespace.writes", float64(b.Writes-a.Writes))
	r.setValue("tuplespace.takes", float64(b.Takes-a.Takes))
	r.setValue("tuplespace.reads", float64(b.Reads-a.Reads))
	r.setValue("tuplespace.blocked", float64(b.Blocked-a.Blocked))
	r.setValue("tuplespace.timeouts", float64(b.Timeouts-a.Timeouts))
	r.setValue("tuplespace.txn_commits", float64(b.TxnCommits-a.TxnCommits))
	r.setValue("tuplespace.txn_aborts", float64(b.TxnAborts-a.TxnAborts))
}
