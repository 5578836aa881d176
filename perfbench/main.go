// Command perfbench is the repository benchmark. It drives the system
// only through its public functions and prints one JSON result line:
//
//	perfbench --workload nft-mint-chain|airdrop-open|sim-corpus
//	          [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics, taken
// from a serial replica that times each call the service's execute and
// commit stages make. The exit code is non-zero when the correctness
// gate fails. README.md in this directory explains the workloads and
// metrics; run.sh builds the command from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics from the traced replica")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the replica's per-layer spans as Chrome trace-event JSON (opens in Perfetto)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// Relative, so the unix socket path stays short however deep the
	// checkout is.
	work := ".bench_build"
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := w.size
	cfg.seed, cfg.seconds, cfg.trace, cfg.workDir = *seed, *seconds, *trace == 1, work

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		printLayerTable(stdout, *name, out)
		if *traceOut != "" && out.spans != nil {
			if err := writeSpans(*traceOut, out.spans); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		}
	}
	line, err := resultLine(out, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct {
		for _, p := range out.problems {
			fmt.Fprintf(stderr, "perfbench: correctness gate: %s\n", p)
		}
		return 1
	}
	return 0
}

// defaultSeed is the workload seed BENCHMARK.json's runs start from;
// README.md names the held-out seed for confirming a claim.
const defaultSeed = 1

// outcome is everything one workload run measured and checked.
type outcome struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
	spans     []span
}

// check records a failed correctness condition.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricDef struct{ name, unit string }

// tailQuantile is the latency tail stream.commit_p90_ms reports; a 15 s
// airdrop-open run has 37 samples beyond it.
const tailQuantile = 0.90

// endToEnd lists the metrics of an untraced run, with the units
// BENCHMARK.json declares; every workload reports all of them.
var endToEnd = []metricDef{
	{"blocks_per_s", "blocks/s"},
	{"height_slowdown", "ratio"},
	{"cpu_ms_per_block", "ms"},
	{"committed_share", "ratio"},
	{"sim_tx_per_s", "tx/s"},
	{"sim_cycles_per_tx", "cycles/tx"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run that every workload
// measures. The open loop's client-side POST round trip and generator
// lateness exist on airdrop-open only, so the layer table prints them
// and the result line leaves them out.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, n := range layerNames {
		defs = append(defs, metricDef{n + "_ms_p50", "ms"}, metricDef{n + "_ms_p99", "ms"}, metricDef{n + "_share", "ratio"})
	}
	return append(defs,
		metricDef{"stream.commit_p50_ms", "ms"},
		metricDef{"stream.commit_p90_ms", "ms"},
		metricDef{"core.digest_growth", "ratio"},
		metricDef{"core.replay_ns_per_sim_instr", "ns"},
		metricDef{"mvstate.spec_hit_ratio", "ratio"},
		metricDef{"mvstate.spec_stale_ratio", "ratio"},
		metricDef{"mvstate.spec_failed_ratio", "ratio"},
		metricDef{"stream.prefetch_busy_ms_per_block", "ms"},
		metricDef{"stream.execute_busy_ms_per_block", "ms"},
		metricDef{"stream.commit_busy_ms_per_block", "ms"},
		metricDef{"stream.overlap_per_block", "count"},
		metricDef{"stream.overhead_ms_per_block", "ms"},
		metricDef{"state.accounts", "count"},
		metricDef{"state.storage_slots", "count"},
		metricDef{"state.accounts_growth", "ratio"},
		metricDef{"state.storage_slots_growth", "ratio"},
		metricDef{"go.alloc_mb_per_block", "MB"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.num_gc", "count"},
		metricDef{"arch.dbcache_hit_ratio", "ratio"},
		metricDef{"arch.skipped_instr_share", "ratio"},
		metricDef{"sched.utilization", "ratio"},
		metricDef{"sched.redundant_steer_ratio", "ratio"},
		metricDef{"sched.refill_scans_per_tx", "count"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final output line: the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one.
func resultLine(o *outcome, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := resultJSON{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(r)
}

// printLayerTable prints every per-layer number the traced run took,
// including the ones the result line leaves out.
func printLayerTable(w io.Writer, name string, o *outcome) {
	fmt.Fprintf(w, "per-layer budget (%s)\n", name)
	fmt.Fprintf(w, "  %-20s %8s %10s %10s %8s\n", "layer", "calls", "p50 ms", "p99 ms", "share")
	for l := layer(0); l < numLayers; l++ {
		n := layerNames[l]
		fmt.Fprintf(w, "  %-20s %8.0f %10.4f %10.4f %8.4f\n", n, o.metrics[n+"_calls"],
			o.metrics[n+"_ms_p50"], o.metrics[n+"_ms_p99"], o.metrics[n+"_share"])
	}
	inTable := map[string]bool{}
	for _, n := range layerNames {
		for _, suffix := range []string{"_calls", "_ms_p50", "_ms_p99", "_share"} {
			inTable[n+suffix] = true
		}
	}
	var keys []string
	for k := range o.metrics {
		if !inTable[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %.6g\n", k, o.metrics[k])
	}
}
