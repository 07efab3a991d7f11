// Command perfbench is the repository's wall-clock benchmark. It builds
// each deployment in-process from the same public constructors the
// cmd/master and cmd/worker binaries use, drives it over loopback TCP on
// the real clock, checks the outputs, and prints every metric by name and
// unit. The last line of standard output is a one-line JSON summary.
//
//	perfbench --workload space-ops|durable-ops|mc-job --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once with span recorders installed
// around every layer boundary, and reports the per-layer metrics and the
// tracing overhead. See README.md for what each metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// endToEnd and perLayer list every metric the JSON summary may carry, with
// its unit. End-to-end metrics come from untraced runs, per-layer ones
// from traced runs; BENCHMARK.json names the same sets. op_p99_us,
// read_p50_us and error_rate are printed but not in the summary: see
// README.md.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "ops_per_s", Unit: "ops/s"},
	{Name: "op_p50_us", Unit: "us"},
	{Name: "write_p50_us", Unit: "us"},
	{Name: "take_p50_us", Unit: "us"},
	{Name: "job_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

var perLayer = []metric{
	{Name: "transport.rpc_p50_us", Unit: "us"},
	{Name: "transport.rpc_p99_us", Unit: "us"},
	{Name: "transport.calls_per_op", Unit: "ratio"},
	{Name: "transport.errors", Unit: "count"},
	{Name: "transport.wire_p50_us", Unit: "us"},
	{Name: "space.service_p50_us", Unit: "us"},
	{Name: "space.service_p99_us", Unit: "us"},
	{Name: "space.read_p50_us", Unit: "us"},
	{Name: "space.admitted", Unit: "count"},
	{Name: "space.rejected", Unit: "count"},
	{Name: "tuplespace.entries_live", Unit: "count"},
	{Name: "tuplespace.writes", Unit: "count"},
	{Name: "tuplespace.takes", Unit: "count"},
	{Name: "tuplespace.reads", Unit: "count"},
	{Name: "tuplespace.blocked", Unit: "count"},
	{Name: "tuplespace.timeouts", Unit: "count"},
	{Name: "tuplespace.txn_commits", Unit: "count"},
	{Name: "tuplespace.txn_aborts", Unit: "count"},
	{Name: "wal.append_p50_us", Unit: "us"},
	{Name: "wal.append_p99_us", Unit: "us"},
	{Name: "wal.fsync_p50_us", Unit: "us"},
	{Name: "wal.fsync_p99_us", Unit: "us"},
	{Name: "wal.fsyncs_per_mutation", Unit: "ratio"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio"},
	{Name: "wal.recovery_s", Unit: "s"},
	{Name: "shard.self_p50_us", Unit: "us"},
	{Name: "shard.child_calls_per_op", Unit: "ratio"},
	{Name: "shard.writebacks", Unit: "count"},
	{Name: "shard.take_yield", Unit: "ratio"},
	{Name: "txn.begin_p50_us", Unit: "us"},
	{Name: "txn.commit_p50_us", Unit: "us"},
	{Name: "txn.subtxns_per_task", Unit: "ratio"},
	{Name: "master.planning_s", Unit: "s"},
	{Name: "master.aggregation_s", Unit: "s"},
	{Name: "master.max_overhead_ms", Unit: "ms"},
	{Name: "master.take_result_p50_us", Unit: "us"},
	{Name: "worker.task_p50_us", Unit: "us"},
	{Name: "worker.take_p50_us", Unit: "us"},
	{Name: "worker.write_p50_us", Unit: "us"},
	{Name: "worker.task_failures", Unit: "count"},
	{Name: "worker.space_errors", Unit: "count"},
	{Name: "montecarlo.compute_s", Unit: "s"},
	{Name: "montecarlo.overhead_frac", Unit: "ratio"},
	{Name: "nodeconfig.load_ms", Unit: "ms"},
	{Name: "runtime.allocs_per_op", Unit: "count"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B"},
	{Name: "runtime.gc_cycles", Unit: "count"},
	{Name: "runtime.gc_pause_ms", Unit: "ms"},
	{Name: "trace.ops_checked", Unit: "count"},
	{Name: "trace.untraced_frac", Unit: "ratio"},
	{Name: "trace.overlap_frac", Unit: "ratio"},
}

func init() {
	// The tracing overhead of every end-to-end metric is a per-layer row.
	for _, m := range endToEnd {
		perLayer = append(perLayer, metric{Name: "trace.overhead." + m.Name, Unit: "ratio"})
	}
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// The shape of every deployment: one closed-loop client (or worker) per
// core of the 2-core machine the workloads were sized on, a 2-shard ring
// for mc-job, and fine-grained montecarlo tasks.
const (
	clients     = 2
	shards      = 2
	workers     = 2
	simsPerTask = 10
)

// sizes scales a run. full() is what the command runs; the package's
// tests use toy sizes.
type sizes struct {
	// setups is the number of deployments per run: each is measured for
	// an equal share of the window, and setup_s is their median set-up.
	setups int
	// durableSetups replaces setups on durable-ops, whose preload pays an
	// fsync per entry.
	durableSetups int
	preload       int
	keys          int
	jobOps        int // ops per client per job_s sample on the op workloads
	tasks         int // subtasks per montecarlo job
	workDir       string
}

func full(workDir string) sizes {
	return sizes{
		setups: 5, durableSetups: 3, preload: 20000, keys: 1000, jobOps: 1000,
		tasks: 2000, workDir: workDir,
	}
}

var workloads = []string{"space-ops", "durable-ops", "mc-job"}

// runWorkload runs one workload and returns its report.
func runWorkload(name string, seed int64, window time.Duration, traced bool, sz sizes) (*result, error) {
	switch name {
	case "space-ops":
		return benchOps(opsConfig{preload: sz.preload, keys: sz.keys, payload: 64, jobOps: sz.jobOps}, seed, window, traced, sz)
	case "durable-ops":
		sz.setups = sz.durableSetups
		return benchOps(opsConfig{durable: true, preload: sz.preload, keys: sz.keys, payload: 1024, jobOps: sz.jobOps}, seed, window, traced, sz)
	case "mc-job":
		return benchMC(seed, window, traced, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

func main() {
	workload := flag.String("workload", "", "workload to run: space-ops, durable-ops or mc-job")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same op sequence and task set")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for durable-space data and span dumps")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds * float64(time.Second))
	res, err := runWorkload(*workload, *seed, window, *trace == 1, full(*workDir))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	keep := names(endToEnd)
	if *trace == 1 {
		keep = names(perLayer)
	}
	if err := res.print(os.Stdout, keep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
