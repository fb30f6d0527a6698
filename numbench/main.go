// Command numbench is the repository benchmark: three batch workloads
// that between them exercise the leap engine's event loop, the
// max-min and xWI allocators, fault handling, the packet engine and
// the fluid Oracle. It builds each workload from --seed, plays it for
// --seconds, checks the simulated outputs, and prints one JSON result
// line. With --trace 0 the result holds the end-to-end metrics of
// untraced plays; with --trace 1 it holds per-layer metrics from a
// separate traced play, timed from outside at the layers' public
// functions. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced plays (--trace 0), reported on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flows_per_s", "1/s"},
	{"wall_s", "s"},
	{"heap_p90_mb", "MB"},
	{"median_norm_fct", "ratio"},
	{"p95_norm_fct", "ratio"},
	{"p99_norm_fct", "ratio"},
	{"rate_dev_median", "ratio"},
	{"finished_frac", "ratio"},
}

// allocLayer are the per-allocator solve metrics, reported once under
// each allocator prefix ("fluid.waterfill.", "fluid.xwi.").
var allocLayer = []metricDef{
	{"solves", "count"},
	{"solve_s", "s"},
	{"solve_ns_p50", "ns"},
	{"solve_ns_p99", "ns"},
	{"flows_per_solve", "count"},
	{"iters_per_solve", "count"},
	{"ns_per_iter", "ns"},
	{"solve_share", "ratio"},
	{"overload_solves", "count"},
	{"overload_max_rel", "ratio"},
}

// perLayer are the metrics of the traced play (--trace 1). A workload
// that does not run a layer reports its metrics as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"harness.schedule_s", "s"},
		{"leap.new_engine_s", "s"},
		{"leap.add_flow_ns", "ns"},
		{"leap.steps", "count"},
		{"leap.step_s", "s"},
		{"leap.step_self_s", "s"},
		{"leap.step_ns_p50", "ns"},
		{"leap.step_ns_p99", "ns"},
		{"leap.phase.admit_s", "s"},
		{"leap.phase.flood_s", "s"},
		{"leap.phase.solve_s", "s"},
		{"leap.phase.resplice_s", "s"},
		{"leap.phase.complete_s", "s"},
		{"leap.events", "count"},
		{"leap.solves", "count"},
		{"leap.elided", "count"},
		{"leap.alloc_work_ratio", "ratio"},
		{"leap.batch_width", "count"},
		{"leap.parallel_solves", "count"},
		{"leap.gate_serial", "count"},
		{"leap.gate_parallel", "count"},
		{"leap.faults", "count"},
		{"leap.stranded", "count"},
		{"leap.resumed", "count"},
		{"leap.allocs_per_event", "count"},
		{"leap.bytes_per_event", "B"},
	}
	for _, alloc := range []string{"waterfill", "xwi"} {
		for _, d := range allocLayer {
			defs = append(defs, metricDef{"fluid." + alloc + "." + d.name, d.unit})
		}
	}
	return append(defs,
		metricDef{"fluid.xwi.gap_samples", "count"},
		metricDef{"fluid.xwi.gap_unconverged", "count"},
		metricDef{"fluid.xwi.opt_gap_p50", "ratio"},
		metricDef{"fluid.xwi.opt_gap_p99", "ratio"},
		metricDef{"packet.run_s", "s"},
		metricDef{"packet.norm_fct_below_1", "count"},
		metricDef{"oracle.ideal_s", "s"},
		metricDef{"oracle.ideal_us_per_event", "us"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_cpu_frac", "ratio"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// setupReps is how many extra set-ups a timed run makes before its
// plays, so that setup_s is a median over enough samples even when a
// run has only a few plays.
const setupReps = 10

// timePlays calls play repeatedly for about the given seconds: it
// makes at least one play, and starts another only if, at the mean
// pace so far, it would end in time. A play of websearch-xwi-faults or
// websearch-packet fills most of a run, so those runs make one play;
// coflows-waterfill runs make dozens.
func timePlays(seconds float64, play func()) {
	start := time.Now()
	for n := 1; ; n++ {
		play()
		if elapsed := time.Since(start).Seconds(); elapsed*float64(n+1)/float64(n) > seconds {
			return
		}
	}
}

// options are the command-line settings every workload reads.
type options struct {
	seed    uint64
	seconds float64
	out     string
}

// report collects a run's check outcomes and metric values.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

// fail records a failed check that affected n flows.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) { r.values[name] = v }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner. A runner plays the
// workload for opt.seconds; traced selects the per-layer play.
var workloads = map[string]func(opt options, traced bool, r *report){
	"coflows-waterfill":    coflowsWaterFill.run,
	"websearch-xwi-faults": websearchXWIFaults.run,
	"websearch-packet":     runPacket,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced plays; 1: per-layer metrics of a traced play")
	out := flag.String("out", ".bench_build/numbench", "directory for the traced play's span dump")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "numbench: want --workload {%s} --seed N --seconds S --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "numbench:", err)
		os.Exit(1)
	}
	opt := options{seed: *seed, seconds: *seconds, out: *out}
	r := &report{values: map[string]float64{}}
	if *trace == 0 {
		heap := startHeapSampler()
		run(opt, false, r)
		r.set("heap_p90_mb", heap.p90MB())
	} else {
		run(opt, true, r)
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && *trace == 0 {
			r.fail(0, "metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(0, "metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-30s %16.6g %s\n", d.name, v, d.unit)
	}
	res.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "numbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// spanPath is where a traced play dumps its spans.
func spanPath(opt options, workload string) string {
	return filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.csv", workload, opt.seed))
}
