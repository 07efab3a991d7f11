package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/tuplespace"
)

// toy shrinks every workload so the whole suite runs in seconds.
func toy(t *testing.T) sizes {
	return sizes{
		setups: 2, durableSetups: 2, preload: 200, keys: 20, jobOps: 50,
		tasks: 40, workDir: t.TempDir(),
	}
}

const toyWindow = 300 * time.Millisecond

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(wl, 1, toyWindow, traced, toy(t))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct {
				t.Fatalf("%s traced=%v: checks failed: %v", wl, traced, res.Problems)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", wl, traced, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = append(append([]metric(nil), endToEnd...), perLayer...)
			}
			for _, w := range want {
				m, ok := res.get(w.Name)
				if !ok || m.Unit != w.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl, traced, w.Name, m, w.Unit)
				}
			}
			for _, w := range endToEnd {
				if m, _ := res.get(w.Name); m.Value <= 0 {
					t.Errorf("%s traced=%v: end-to-end %s = %v, want > 0", wl, traced, w.Name, m.Value)
				}
			}
			var out strings.Builder
			keep := names(endToEnd)
			if traced {
				keep = names(perLayer)
			}
			if err := res.print(&out, keep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", wl, err)
			}
			if !last.Correct || len(last.Metrics) != len(keep) {
				t.Errorf("%s traced=%v: summary correct=%v with %d metrics, want %d", wl, traced, last.Correct, len(last.Metrics), len(keep))
			}
			if traced {
				checkBypass(t, wl, res)
			}
		}
	}
}

// checkBypass confirms the bypass arms: the op workloads never reach the
// router, transactions, master or workers, and only durable-ops reaches the
// WAL.
func checkBypass(t *testing.T, wl string, res *result) {
	t.Helper()
	val := func(name string) float64 { m, _ := res.get(name); return m.Value }
	var zeroPrefixes []string
	if wl != "mc-job" {
		zeroPrefixes = []string{"shard.", "txn.", "master.", "worker.", "montecarlo.", "nodeconfig."}
	}
	if wl != "durable-ops" {
		zeroPrefixes = append(zeroPrefixes, "wal.")
	}
	for _, m := range res.Metrics {
		for _, p := range zeroPrefixes {
			if strings.HasPrefix(m.Name, p) && m.Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer bypassed)", wl, m.Name, m.Value)
			}
		}
	}
	if val("transport.calls_per_op") <= 0 || val("space.admitted") <= 0 {
		t.Errorf("%s: transport or service saw no calls", wl)
	}
	switch wl {
	case "durable-ops":
		if val("wal.fsyncs_per_mutation") <= 0 || val("wal.bytes_per_user_byte") <= 0 || val("wal.recovery_s") <= 0 {
			t.Errorf("durable-ops: WAL rows missing")
		}
	case "mc-job":
		if val("shard.child_calls_per_op") <= 0 || val("txn.subtxns_per_task") <= 0 || val("worker.task_p50_us") <= 0 ||
			val("montecarlo.compute_s") <= 0 || val("nodeconfig.load_ms") <= 0 {
			t.Errorf("mc-job: router, txn, worker or app rows missing")
		}
	}
	if val("trace.ops_checked") <= 0 || val("trace.untraced_frac") != 0 {
		t.Errorf("%s: self-time check: %v ops, untraced %v", wl, val("trace.ops_checked"), val("trace.untraced_frac"))
	}
}

func TestChecksPassOnSecondSeed(t *testing.T) {
	for _, wl := range workloads {
		res, err := runWorkload(wl, 2, toyWindow, false, toy(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s seed 2: %v", wl, res.Problems)
		}
	}
}

func TestSeedFixesOpsAndTasks(t *testing.T) {
	seq := func(seed int64) []string {
		g := newOpGen(seed, 0, 1000)
		var out []string
		for i := 0; i < 500; i++ {
			k, key := g.next()
			out = append(out, string(rune('0'+k))+key)
		}
		return out
	}
	if !reflect.DeepEqual(seq(7), seq(7)) {
		t.Error("same seed gave different op sequences")
	}
	if reflect.DeepEqual(seq(7), seq(8)) {
		t.Error("different seeds gave the same op sequence")
	}
	tasks := func(seed int64) []montecarlo.Task {
		var out []montecarlo.Task
		montecarlo.NewJob(jobConfig(seed, toy(t))).Plan(func(e tuplespace.Entry) error {
			out = append(out, e.(montecarlo.Task))
			return nil
		})
		return out
	}
	if !reflect.DeepEqual(tasks(7), tasks(7)) {
		t.Error("same seed gave different task sets")
	}
	if reflect.DeepEqual(tasks(7), tasks(8)) {
		t.Error("different seeds gave the same task set")
	}
}

func TestOpsCheckCatchesWrongAccounting(t *testing.T) {
	sz := toy(t)
	cfg := opsConfig{preload: sz.preload, keys: sz.keys, payload: 64, jobOps: sz.jobOps}
	clk := epoch{t0: time.Now()}
	d, err := setupOps(cfg, 1, sz.workDir, false, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	run := runOps(d, 1, toyWindow, clk)
	good := &result{}
	checkOps(d, run, good)
	if len(good.Problems) != 0 {
		t.Fatalf("honest accounting failed: %v", good.Problems)
	}
	run.tallies[0].writes++
	bad := &result{}
	checkOps(d, run, bad)
	if len(bad.Problems) == 0 {
		t.Error("an extra write in the accounting passed the check")
	}
}

func TestJobCheckCatchesWrongReference(t *testing.T) {
	cfg := jobConfig(1, toy(t))
	ref, tasks, _, err := reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := jobRun{results: tasks, price: ref}
	j.rm.Tasks = tasks
	good := &result{}
	checkJob(j, ref, tasks, cfg.TotalSims, good)
	if len(good.Problems) != 0 {
		t.Fatalf("matching reference failed: %v", good.Problems)
	}
	wrong := ref
	wrong.High *= 1 + 1e-6
	bad := &result{}
	checkJob(j, wrong, tasks, cfg.TotalSims, bad)
	if len(bad.Problems) == 0 {
		t.Error("a wrong reference price passed the check")
	}
	short := j
	short.results--
	bad = &result{}
	checkJob(short, ref, tasks, cfg.TotalSims, bad)
	if len(bad.Problems) == 0 {
		t.Error("a missing result passed the check")
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	// root [0,100) with children [10,40) and [30,60) (overlapping) and a
	// grandchild [15,20) under the first child.
	spans := []span{
		{depth: 0, parent: -1, start: 0, end: 100},
		{depth: 1, parent: 0, start: 10, end: 40},
		{depth: 1, parent: 0, start: 30, end: 60},
		{depth: 2, parent: 1, start: 15, end: 20},
	}
	var chk treeCheck
	self := selfTimes(spans, 0, 1000, &chk)
	if want := []int64{50, 25, 30, 5}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if chk.ops != 1 || chk.shortfall != 0 || chk.overlap != 10 {
		t.Errorf("check %+v, want 1 op, no shortfall, 10 ns overlap", chk)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", wl, workloads)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d measured", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, measured %s %s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
