package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/master"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
)

// jobConfig is the option-pricing job the mc-job workload runs: ShardSpread
// mode, fine-grained tasks, and no modeled costs, so the job's time is the
// program's own.
func jobConfig(seed int64, sz sizes) montecarlo.JobConfig {
	return montecarlo.JobConfig{
		Params:      montecarlo.DefaultParams(),
		TotalSims:   sz.tasks * simsPerTask,
		SimsPerTask: simsPerTask,
		Seed:        seed,
		ShardSpread: true,
	}
}

// ringID names shard i on the consistent-hash ring. cmd/master uses the
// listener address, which here would be a random loopback port and so a
// random task placement per run; a fixed name keeps placement part of the
// workload's inputs. Master and workers use the same names, as they must.
func ringID(i int) string { return fmt.Sprintf("shard%d", i) }

// mcWorker is one worker node: a router over TCP proxies to every shard,
// the code-download engine, and the worker module itself.
type mcWorker struct {
	w      *worker.Worker
	router *shard.Router
	code   transport.Client
	done   chan struct{}
	loadMs float64
}

// mcDeploy is the master's shards on TCP listeners, the master on a
// router over local handles (as cmd/master builds it), and the workers.
type mcDeploy struct {
	locals   []*space.Local
	services []*space.Service
	lns      []*transport.TCPListener
	router   *shard.Router
	master   *master.Master
	workers  []*mcWorker
	mActor   *actor   // the master's actor (nil when untraced)
	wActors  []*actor // one per worker
	srvTap   *serverTap
	setup    time.Duration
	loadMs   []float64 // each worker's Engine.Load
}

func setupMC(seed int64, sz sizes, traced bool, clk epoch) (*mcDeploy, error) {
	t0 := time.Now()
	real := vclock.NewReal()
	d := &mcDeploy{}
	cs := nodeconfig.NewCodeServer()
	cs.Publish(montecarlo.NewJob(jobConfig(seed, sz)).Bundle())
	if traced {
		d.srvTap = newServerTap(clk)
		d.mActor = newActor("master", clk)
	}
	var hosted []shard.Shard
	var sweeper shard.MultiSweeper
	for i := 0; i < shards; i++ {
		local := space.NewLocal(real)
		srv := transport.NewServer()
		svc := space.NewService(local, srv)
		svc.Admission().Configure(space.AdmissionConfig{Clock: real, MaxInflight: 0})
		if traced {
			srv.WrapPrefix("space.", d.srvTap.middleware)
		}
		if i == 0 {
			cs.Bind(srv)
		}
		ln, err := transport.ListenTCP("127.0.0.1:0", srv)
		if err != nil {
			local.Close()
			d.close()
			return nil, err
		}
		d.locals = append(d.locals, local)
		d.services = append(d.services, svc)
		d.lns = append(d.lns, ln)
		var h space.Space = local
		if traced {
			h = &spaceTap{inner: local, a: d.mActor, depth: 1, layer: layerLocal}
		}
		hosted = append(hosted, shard.Shard{ID: ringID(i), Space: h})
		sweeper = append(sweeper, local.Mgr)
	}
	router, err := shard.New(shard.Options{Clock: real, Seed: "master"}, hosted)
	if err != nil {
		d.close()
		return nil, err
	}
	d.router = router
	var msp space.Space = router
	if traced {
		msp = &spaceTap{inner: router, a: d.mActor, layer: layerRouter}
	}
	d.master = master.New(master.Config{
		Clock:         real,
		Space:         msp,
		ResultTimeout: 2 * time.Minute,
		Sweeper:       sweeper,
		SweepInterval: 30 * time.Second,
	})
	for i := 0; i < workers; i++ {
		w, err := startWorker(fmt.Sprintf("node%02d", i+1), d, traced, clk)
		if err != nil {
			d.close()
			return nil, err
		}
		d.workers = append(d.workers, w)
		d.loadMs = append(d.loadMs, w.loadMs)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// startWorker builds one worker as cmd/worker does — a router over one TCP
// proxy per shard, TxnTTL 2 min, the program downloaded from the code
// server on shard 0's listener — and starts its task loop. The worker's
// handle always carries a root tap: its spans are the worker's ops.
func startWorker(name string, d *mcDeploy, traced bool, clk epoch) (*mcWorker, error) {
	real := vclock.NewReal()
	a := newActor(name, clk)
	d.wActors = append(d.wActors, a)
	var shards []shard.Shard
	closeAll := func() {
		for _, s := range shards {
			s.Space.Close()
		}
	}
	for i, ln := range d.lns {
		c, err := transport.DialTCP(ln.Addr())
		if err != nil {
			closeAll()
			return nil, err
		}
		if traced {
			c = &rpcTap{inner: c, a: a, depth: 2}
		}
		var h space.Space = space.NewProxy(c)
		if traced {
			h = &spaceTap{inner: h, a: a, depth: 1, layer: layerSpace}
		}
		shards = append(shards, shard.Shard{ID: ringID(i), Space: h})
	}
	router, err := shard.New(shard.Options{Clock: real, Seed: name}, shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	code, err := transport.DialTCP(d.lns[0].Addr())
	if err != nil {
		router.Close()
		return nil, err
	}
	engine := nodeconfig.NewEngine(nodeconfig.ExecContext{Clock: real, Node: name}, code)
	t0 := time.Now()
	if _, err := engine.Load(montecarlo.JobName); err != nil {
		router.Close()
		code.Close()
		return nil, fmt.Errorf("load program: %w", err)
	}
	mw := &mcWorker{router: router, code: code, done: make(chan struct{}),
		loadMs: float64(time.Since(t0)) / 1e6}
	mw.w = worker.New(worker.Config{
		Node:         name,
		Clock:        real,
		Space:        &spaceTap{inner: router, a: a, layer: layerRouter},
		Engine:       engine,
		Program:      montecarlo.JobName,
		TaskTemplate: montecarlo.Task{},
		TxnTTL:       2 * time.Minute,
	})
	mw.w.AutoStart()
	go func() {
		defer close(mw.done)
		mw.w.Run()
	}()
	return mw, nil
}

// close stops the workers (waiting for their loops to exit), then the
// master's shards and listeners.
func (d *mcDeploy) close() {
	for _, w := range d.workers {
		w.w.Shutdown()
	}
	for _, w := range d.workers {
		<-w.done
		w.router.Close()
		w.code.Close()
	}
	d.workers = nil
	for _, ln := range d.lns {
		ln.Close()
	}
	d.lns = nil
	for _, l := range d.locals {
		l.Close()
	}
	d.locals = nil
}

// jobRun is one master.RunJob inside the timed window.
type jobRun struct {
	from, to int64
	rm       master.RunMetrics
	price    montecarlo.Price
	results  int
}

// reference prices the job the way the workers do, task by task in ID
// order, and aggregates like montecarlo.Job.Answer. It returns the price
// and the time the estimator arithmetic took.
func reference(cfg montecarlo.JobConfig) (montecarlo.Price, int, time.Duration, error) {
	var tasks []montecarlo.Task
	if err := montecarlo.NewJob(cfg).Plan(func(e tuplespace.Entry) error {
		tasks = append(tasks, e.(montecarlo.Task))
		return nil
	}); err != nil {
		return montecarlo.Price{}, 0, 0, err
	}
	var p montecarlo.Price
	var highN, lowN int
	var highVar, lowVar float64
	t0 := time.Now()
	for _, t := range tasks {
		est := montecarlo.EstimateHigh
		if t.Kind == "low" {
			est = montecarlo.EstimateLow
		}
		e, err := est(t.Params, t.Sims, t.Seed)
		if err != nil {
			return montecarlo.Price{}, 0, 0, err
		}
		n := float64(e.Sims)
		if t.Kind == "high" {
			p.High += e.Mean * n
			highVar += e.StdErr * e.StdErr * n * n
			highN += e.Sims
		} else {
			p.Low += e.Mean * n
			lowVar += e.StdErr * e.StdErr * n * n
			lowN += e.Sims
		}
	}
	compute := time.Since(t0)
	p.High /= float64(highN)
	p.Low /= float64(lowN)
	p.HighErr = math.Sqrt(highVar) / float64(highN)
	p.LowErr = math.Sqrt(lowVar) / float64(lowN)
	p.Sims = highN + lowN
	return p, len(tasks), compute, nil
}

// checkJob compares one job's outcome with the reference: every task's
// result collected, every simulation counted, and the bracket equal within
// 1e-9 relative (aggregation order varies between runs).
func checkJob(j jobRun, ref montecarlo.Price, tasks int, totalSims int, res *result) {
	if j.results != tasks || j.rm.Tasks != tasks {
		res.fail("job: %d results for %d planned tasks, want %d", j.results, j.rm.Tasks, tasks)
	}
	if j.price.Sims != totalSims || ref.Sims != totalSims {
		res.fail("job: %d simulations aggregated (reference %d), want %d", j.price.Sims, ref.Sims, totalSims)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"high", j.price.High, ref.High},
		{"low", j.price.Low, ref.Low},
		{"high stderr", j.price.HighErr, ref.HighErr},
		{"low stderr", j.price.LowErr, ref.LowErr},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) || math.IsNaN(c.got) {
			res.fail("job: %s estimate %.12g, reference %.12g", c.name, c.got, c.want)
		}
	}
}

// mcRound is one mc-job deployment, measured for its share of the window,
// with the counters read around that share.
type mcRound struct {
	d        *mcDeploy
	jobs     []jobRun
	from, to int64
	mem      memDelta
	stats0   []worker.Stats
	stats1   []worker.Stats
	adm0     []space.AdmissionVitals
	adm1     []space.AdmissionVitals
	ts0      []tuplespace.Stats
	ts1      []tuplespace.Stats
	server   map[string][]int64
}

// mcRef is the reference price of the job every round runs.
type mcRef struct {
	price   montecarlo.Price
	tasks   int
	compute time.Duration
}

// runMCRounds sets mc-job up n times and runs jobs back to back on each
// deployment for window/n, checking every job against ref. A deployment
// keeps whatever collection rhythm its master and workers fall into, and
// that rhythm moves job_s by more than a tenth between deployments, so the
// window is spread over fresh ones.
func runMCRounds(seed int64, window time.Duration, traced bool, n int, sz sizes, clk epoch, ref mcRef, res *result) ([]*mcRound, error) {
	var rounds []*mcRound
	for i := 0; i < n; i++ {
		settle()
		d, err := setupMC(seed, sz, traced, clk)
		if err != nil {
			return nil, err
		}
		p, err := measureMC(d, seed, window/time.Duration(n), sz, clk, ref, res)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, p)
	}
	return rounds, nil
}

func measureMC(d *mcDeploy, seed int64, window time.Duration, sz sizes, clk epoch, ref mcRef, res *result) (*mcRound, error) {
	defer d.close()
	p := &mcRound{d: d}
	cfg := jobConfig(seed, sz)
	read := func() ([]worker.Stats, []space.AdmissionVitals, []tuplespace.Stats) {
		var ws []worker.Stats
		for _, w := range d.workers {
			ws = append(ws, w.w.Stats())
		}
		var av []space.AdmissionVitals
		for _, s := range d.services {
			av = append(av, s.Admission().Vitals())
		}
		var ts []tuplespace.Stats
		for _, l := range d.locals {
			ts = append(ts, l.TS.Stats())
		}
		return ws, av, ts
	}
	p.stats0, p.adm0, p.ts0 = read()
	d.srvTap.reset()
	settle()
	m0 := readMem()
	p.from = clk.now()
	start := time.Now()
	for len(p.jobs) == 0 || time.Since(start) < window {
		job := montecarlo.NewJob(cfg)
		j := jobRun{from: clk.now()}
		rm, err := d.master.RunJob(job)
		j.to = clk.now()
		if err != nil {
			return nil, fmt.Errorf("run job: %w", err)
		}
		j.rm, j.results = rm, job.ResultCount()
		if j.price, err = job.Answer(); err != nil {
			res.fail("job answer: %v", err)
		}
		p.jobs = append(p.jobs, j)
	}
	p.to = clk.now()
	p.mem = diffMem(m0, readMem())
	p.stats1, p.adm1, p.ts1 = read()
	if d.srvTap != nil {
		p.server = d.srvTap.durations()
	}
	for _, j := range p.jobs {
		checkJob(j, ref.price, ref.tasks, cfg.TotalSims, res)
		res.Attempted += j.rm.Tasks
	}
	res.Failed += p.failures()
	return p, nil
}

// failures is TaskFailures + SpaceErrors over the window, all workers.
func (p *mcRound) failures() int {
	n := 0
	for i := range p.stats1 {
		n += p.stats1[i].TaskFailures - p.stats0[i].TaskFailures
		n += p.stats1[i].SpaceErrors - p.stats0[i].SpaceErrors
	}
	return n
}

// jobOf returns the index of the job a span ran inside, or -1.
func (p *mcRound) jobOf(s span) int {
	for i, j := range p.jobs {
		if s.start >= j.from && s.end <= j.to {
			return i
		}
	}
	return -1
}

// inJobs keeps spans that ran inside one of the round's jobs.
func (p *mcRound) inJobs(f spanFilter) spanFilter {
	return func(s span) bool { return f(s) && p.jobOf(s) >= 0 }
}

// taskTimes returns the begin→commit time of every task a worker
// committed inside one of the round's jobs, in microseconds.
func (p *mcRound) taskTimes(v traceView) []float64 {
	var out []float64
	for _, s := range v.spans {
		if s.depth == 0 && s.method == "Commit" && s.outcome == outOK && p.jobOf(s) >= 0 {
			out = append(out, float64(s.end-s.txnStart)/1e3)
		}
	}
	return out
}

// mcE2E sets the end-to-end rows of mc-job, pooled over the rounds. Its
// op is a task: ops_per_s is tasks committed per second of job time,
// op_p50_us and op_p99_us their begin→commit time.
func mcE2E(r *result, rounds []*mcRound) {
	var setups, jobS, tasks, writes, takes []float64
	var total float64
	planned, failed := 0, 0
	for _, p := range rounds {
		v := collect(p.d.wActors, p.from, p.to)
		setups = append(setups, p.d.setup.Seconds())
		for _, j := range p.jobs {
			s := float64(j.to-j.from) / 1e9
			jobS = append(jobS, s)
			total += s
			planned += j.rm.Tasks
		}
		tasks = append(tasks, p.taskTimes(v)...)
		writes = append(writes, v.durs(p.inJobs(at(0, true, "Write")))...)
		takes = append(takes, v.durs(p.inJobs(at(0, true, "Take")))...)
		failed += p.failures()
	}
	r.set(metric{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)})
	r.set(metric{Name: "ops_per_s", Value: float64(len(tasks)) / total, Unit: "ops/s", Samples: len(tasks),
		Note: "mc-job: tasks committed per second of job time"})
	op := timing("op_p50_us", tasks)
	op.Note = "mc-job: a task's BeginTxn→Commit"
	r.set(op)
	r.set(metric{Name: "op_p99_us", Value: op.P99, Unit: "us", Samples: op.Samples})
	r.setTiming("write_p50_us", writes)
	r.setTiming("take_p50_us", takes)
	r.set(metric{Name: "job_s", Value: median(jobS), Unit: "s", Samples: len(jobS),
		Note: "wall time of master.RunJob"})
	r.set(metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"})
	r.set(metric{Name: "error_rate", Value: ratio(float64(failed), float64(planned)), Unit: "ratio", Samples: planned,
		Note: "(task failures + space errors) ÷ tasks"})
}

// benchMC runs mc-job.
func benchMC(seed int64, window time.Duration, traced bool, sz sizes) (*result, error) {
	res := &result{}
	clk := epoch{t0: time.Now()}
	var ref mcRef
	var err error
	ref.price, ref.tasks, ref.compute, err = reference(jobConfig(seed, sz))
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	n := sz.setups
	if traced {
		n = 1
	}
	u, err := runMCRounds(seed, window, false, n, sz, clk, ref, res)
	if err != nil {
		return nil, err
	}
	mcE2E(res, u)
	if traced {
		ts, err := runMCRounds(seed, window, true, 1, sz, clk, ref, res)
		if err != nil {
			return nil, err
		}
		t := ts[0]
		mcLayers(res, t, u, ref)
		tr := &result{}
		mcE2E(tr, ts)
		overheadRows(res, tr)
		path := filepath.Join(sz.workDir, "spans-mc-job.tsv")
		if err := writeSpans(path, append([]*actor{t.d.mActor}, t.d.wActors...)); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes,
			"per-layer rows come from the traced run; end-to-end rows from the untraced run before it",
			"server handler spans are joined to client RPC spans per method in aggregate, not per op",
			"spans written to "+path)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// mcLayers sets the per-layer rows of mc-job from its traced round t;
// runtime rows and montecarlo.overhead_frac use the untraced rounds u.
func mcLayers(r *result, t *mcRound, u []*mcRound, ref mcRef) {
	r.addLayerDefaults()
	wv := collect(t.d.wActors, t.from, t.to)
	mv := collect([]*actor{t.d.mActor}, t.from, t.to)
	rpcAndServer(r, wv, wv.count(at(0, false)), t.server)

	var adm, rej uint64
	for i := range t.adm1 {
		adm += t.adm1[i].Admitted - t.adm0[i].Admitted
		rej += t.adm1[i].Rejected - t.adm0[i].Rejected
	}
	r.setValue("space.admitted", float64(adm))
	r.setValue("space.rejected", float64(rej))
	tsRows(r, sumStats(t.ts0), sumStats(t.ts1))

	// shard: the router is the root layer of both the workers and the
	// master; its children are the per-shard handles.
	var self []float64
	var rootOps, childCalls, rootWrites, childWrites, usefulTakes, childTakes int
	for _, v := range []traceView{wv, mv} {
		self = append(self, v.selfs(at(0, false))...)
		rootOps += v.count(func(s span) bool { return s.depth == 0 })
		childCalls += v.count(func(s span) bool { return s.depth == 1 })
		rootWrites += v.count(func(s span) bool { return s.depth == 0 && s.method == "Write" })
		childWrites += v.count(func(s span) bool { return s.depth == 1 && s.method == "Write" })
		usefulTakes += v.count(at(0, true, "Take", "TakeIfExists"))
		childTakes += v.count(func(s span) bool { return s.depth == 1 && (s.method == "Take" || s.method == "TakeIfExists") })
	}
	r.set(metric{Name: "shard.self_p50_us", Value: median(self), Samples: len(self),
		Note: "router span minus covered child spans, poll sleeps included"})
	r.setValue("shard.child_calls_per_op", ratio(float64(childCalls), float64(rootOps)))
	r.setValue("shard.writebacks", float64(childWrites-rootWrites))
	r.setValue("shard.take_yield", ratio(float64(usefulTakes), float64(childTakes)))

	tasks := 0
	for i := range t.stats1 {
		tasks += t.stats1[i].TasksDone - t.stats0[i].TasksDone
	}
	r.setTiming("txn.begin_p50_us", wv.durs(at(1, true, "BeginTxn")))
	r.setTiming("txn.commit_p50_us", wv.durs(at(0, true, "Commit")))
	r.setValue("txn.subtxns_per_task", ratio(float64(wv.count(at(1, true, "BeginTxn"))), float64(tasks)))

	var plan, agg, over []float64
	for _, j := range t.jobs {
		plan = append(plan, j.rm.TaskPlanningTime.Seconds())
		agg = append(agg, j.rm.TaskAggregationTime.Seconds())
		over = append(over, float64(j.rm.MaxMasterOverhead)/1e6)
	}
	r.set(metric{Name: "master.planning_s", Value: median(plan), Samples: len(plan)})
	r.set(metric{Name: "master.aggregation_s", Value: median(agg), Samples: len(agg)})
	r.set(metric{Name: "master.max_overhead_ms", Value: median(over), Samples: len(over)})
	r.setTiming("master.take_result_p50_us", mv.durs(at(0, true, "Take")))

	r.setTiming("worker.task_p50_us", t.taskTimes(wv))
	r.setTiming("worker.take_p50_us", wv.durs(at(0, true, "Take")))
	r.setTiming("worker.write_p50_us", wv.durs(at(0, true, "Write")))
	var tf, se int
	for i := range t.stats1 {
		tf += t.stats1[i].TaskFailures - t.stats0[i].TaskFailures
		se += t.stats1[i].SpaceErrors - t.stats0[i].SpaceErrors
	}
	r.setValue("worker.task_failures", float64(tf))
	r.setValue("worker.space_errors", float64(se))

	uj, _ := r.get("job_s")
	r.setValue("montecarlo.compute_s", ref.compute.Seconds())
	r.set(metric{Name: "montecarlo.overhead_frac", Value: 1 - ratio(ref.compute.Seconds(), workers*uj.Value),
		Note: "1 - compute ÷ (workers × job_s), untraced job_s"})
	r.set(metric{Name: "nodeconfig.load_ms", Value: median(t.d.loadMs), Samples: len(t.d.loadMs)})

	chk := wv.chk
	chk.ops += mv.chk.ops
	chk.rootNs += mv.chk.rootNs
	chk.shortfall += mv.chk.shortfall
	chk.overlap += mv.chk.overlap
	treeRows(r, chk)
	var mem memDelta
	tasks = 0
	for _, p := range u {
		mem = mem.plus(p.mem)
		for _, j := range p.jobs {
			tasks += j.rm.Tasks
		}
	}
	for _, m := range mem.metrics(tasks) {
		r.set(m)
	}
}

func sumStats(ss []tuplespace.Stats) tuplespace.Stats {
	var t tuplespace.Stats
	for _, s := range ss {
		t.Writes += s.Writes
		t.Reads += s.Reads
		t.Takes += s.Takes
		t.Blocked += s.Blocked
		t.Timeouts += s.Timeouts
		t.TxnCommits += s.TxnCommits
		t.TxnAborts += s.TxnAborts
		t.EntriesLive += s.EntriesLive
	}
	return t
}
