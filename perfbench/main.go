// Command perfbench is the PQS-DA serving benchmark. It generates a
// synthetic world from a seed, starts the shipped cmd/pqsda server on
// the generated log, drives one named workload over loopback HTTP, gates
// every answer for correctness, and prints the metrics as the last line
// of its output:
//
//	perfbench -server ./pqsda --workload tail-context --seed 3 --seconds 10 --trace 0
//
// With --trace 1 it also replays the workload in-process through each
// module's public entry points and reports the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

// metricDef names a metric, its unit, and which direction is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the server sees (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"suggest_p50_ms", "ms", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"alpha_ndcg10", "score", "higher"},
	{"refresh_p50_ms", "ms", "lower"},
	{"learn_p50_ms", "ms", "lower"},
	{"warm_batch_p50_ms", "ms", "lower"},
	{"server_rss_mb", "MiB", "lower"},
}

// perLayer are the per-module metrics of the traced run (--trace 1),
// led by three end-to-end figures whose run-to-run spread on a shared
// machine is too wide to bound: the steady phase's p99, the capacity
// ladder and the replica start. They are recorded without a bound.
var perLayer = []metricDef{
	{"suggest_p99_ms", "ms", "lower"},
	{"capacity_rps", "1/s", "higher"},
	{"replica_ready_ms", "ms", "lower"},
	{"server.handler_us.p50", "us", "lower"},
	{"server.loopback_us.p50", "us", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"admission.shed", "count", "lower"},
	{"admission.admitted", "count", "higher"},
	{"suggestcache.hit_ratio", "ratio", "higher"},
	{"suggestcache.lookups", "count", "higher"},
	{"suggestcache.coalesced", "count", "higher"},
	{"core.do_us.p50", "us", "lower"},
	{"core.do_us.p99", "us", "lower"},
	{"core.compact_cache_hit_ratio", "ratio", "higher"},
	{"core.dobatch_ms", "ms", "lower"},
	{"core.unexplained_share", "ratio", "lower"},
	{"bipartite.compact_us", "us", "lower"},
	{"bipartite.build_ms", "ms", "lower"},
	{"regularize.solve_us", "us", "lower"},
	{"regularize.cg_iterations", "count", "lower"},
	{"sparse.cg_bytes_per_solve", "bytes", "lower"},
	{"sparse.multi_lanes_per_solve", "count", "higher"},
	{"diversify.select_us", "us", "lower"},
	{"hittingtime.rounds", "count", "lower"},
	{"randomwalk.sweep_us", "us", "lower"},
	{"profile.personalize_us", "us", "lower"},
	{"snapshot.delta_build_ms", "ms", "lower"},
	{"snapshot.symbols_ms", "ms", "lower"},
	{"snapshot.delta_allocs", "count", "lower"},
	{"topicmodel.foldin_ms", "ms", "lower"},
	{"topicmodel.train_s", "s", "lower"},
	{"querylog.clean_ms", "ms", "lower"},
	{"querylog.sessionize_ms", "ms", "lower"},
	{"snapwire.load_ms", "ms", "lower"},
	{"snapwire.image_bytes", "bytes", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.mallocs_per_req", "count", "lower"},
	{"traffic.distinct_seed_sets", "count", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
}

func main() {
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", HeadReplay, "workload: head-replay, tail-context or ingest-refresh")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the synthetic world and the request streams")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the timed steady phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.Server, "server", "", "path of the built cmd/pqsda binary")
	flag.StringVar(&o.Work, "work", os.TempDir(), "directory for the run's logs, snapshot images and span exports")
	flag.Parse()
	o.Trace = trace == 1
	o.Scale = "full"
	if o.Server == "" || o.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	// The generator's own collections would stall sends and show up as
	// latency; collect less often, within a bounded heap.
	debug.SetGCPercent(400)
	debug.SetMemoryLimit(1 << 30)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := Run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range out.Report {
		fmt.Println(line)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
