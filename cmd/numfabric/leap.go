package main

import (
	"fmt"
	"math"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/trace"
)

// runLeapFCT is the event-driven FCT experiment: a web-search Poisson
// workload on a k=8 fat-tree played through the leap engine under the
// NUMFabric scheme's xWI dynamics (run to the fixed point at every
// arrival/departure) with the §6.3 FCT-minimizing utility — the same
// objective examples/fctmin demos at packet level — swept across load
// levels. It reports each load's
// normalized FCT distribution (FCT over the flow's line-rate wire
// time) plus the engine telemetry that explains the speed: events and
// allocations, not simulated epochs, bound the work. -scale full runs
// the million-flow headline at one load; BenchmarkLeapFCT holds the
// rigorous same-accuracy comparison against the epoch engine.
func runLeapFCT(full bool, seed uint64) {
	const k, linkRate = 8, 10e9
	nflows, loads := 10000, []float64{0.05, 0.15, 0.3}
	if full {
		nflows, loads = 1000000, []float64{0.05}
	}
	cfg := harness.DefaultConfig(harness.NUMFabric, harness.ScaledTopology())
	ft := fluid.NewFatTree(k, linkRate)
	fmt.Printf("leap-engine FCT sweep: k=%d fat-tree (%d hosts), websearch, %d flows per load\n",
		k, ft.Hosts(), nflows)
	fmt.Printf("%-6s %10s %10s %10s %12s %10s %9s %8s %8s %9s %7s %7s %7s %10s\n",
		"load", "medNorm", "p95Norm", "flows/s", "events", "allocs", "avgComp", "maxComp", "workX",
		"batchW", "flood%", "solve%", "compl%", "wall")
	tab := trace.NewTable("load", "median_norm_fct", "p95_norm_fct", "flows_per_s",
		"events", "allocs", "solved_flows", "max_component", "elided", "full_solve_flows",
		"batches",
		"admit_ns", "flood_ns", "solve_ns", "resplice_ns", "complete_ns", "drain_ns", "loop_ns",
		"p99_norm_fct", "tail_flows", "tail_link", "tail_link_share")
	// The flow tracer behind the slowdown-attribution lines: the
	// CLI-level one when -flowtrace-out/-debug-addr asked for it (reset
	// per load, so /flows and the JSONL export reflect the current —
	// finally the last — load), a private sampled tracer otherwise.
	tracer := cliObs.FlowTrace
	for _, load := range loads {
		arrivals, paths := harness.FatTreeWebSearch(ft, load, nflows, sim.NewRNG(seed))
		// Each load gets a fresh phase profiler (so its breakdown covers
		// exactly that run) on top of whatever -debug-addr/-trace-out
		// hooks are shared across the sweep.
		hooks := cliObs
		hooks.Profiler = obs.NewPhaseProfiler()
		if tracer != nil {
			tracer.Reset()
		} else {
			tracer = obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.01})
		}
		tracer.SetLinkName(ft.LinkName)
		hooks.FlowTrace = tracer
		eng := leap.NewEngine(ft.Net, leap.Config{
			Allocator: harness.LeapAllocatorFor(cfg),
			Obs:       hooks,
		})
		for i, a := range arrivals {
			eng.AddFlow(paths[i], core.FCTMin(a.Size, 0.125), a.Size, a.At.Seconds())
		}
		wall := time.Now()
		eng.Run(math.Inf(1))
		elapsed := time.Since(wall)

		var norm []float64
		for _, f := range eng.Finished() {
			norm = append(norm, f.FCT()/(float64(f.SizeBytes)*8/linkRate))
		}
		med, p95 := stats.Median(norm), stats.Percentile(norm, 0.95)
		rate := float64(len(norm)) / elapsed.Seconds()
		s := eng.Stats()
		// avgComp is the mean flows per allocator solve; workX the
		// factor saved against re-solving the full active set at every
		// coupled event (the engine's global-counterfactual counter);
		// batchW the mean disjoint components per reallocation batch.
		avgComp := float64(s.SolvedFlows) / math.Max(float64(s.Allocs), 1)
		workX := float64(s.FullSolveFlows) / math.Max(float64(s.SolvedFlows), 1)
		batchW := float64(s.BatchComponents) / math.Max(float64(s.Batches), 1)
		// Phase shares: where the event loop's wall time went, as a
		// fraction of the profiled total (the laps tile Run, so the
		// shares account for essentially all of it).
		ph := s.PhaseNanos
		total := math.Max(float64(hooks.Profiler.TotalNanos()), 1)
		pct := func(p obs.Phase) float64 { return 100 * float64(ph[p]) / total }
		fmt.Printf("%-6.2f %10.2f %10.2f %10.0f %12d %10d %9.1f %8d %8.1f %9.2f %6.1f%% %6.1f%% %6.1f%% %10v\n",
			load, med, p95, rate, s.Events, s.Allocs, avgComp, s.MaxComponent, workX,
			batchW, pct(obs.PhaseFlood), pct(obs.PhaseSolve), pct(obs.PhaseComplete),
			elapsed.Round(time.Millisecond))
		// Tail-latency attribution: where the slowest 1% of traced flows
		// lost their service time, by bottleneck link. The slowest-K
		// reservoir guarantees the true tail is in the trace even at low
		// sample rates.
		p99 := stats.Percentile(norm, 0.99)
		attr, tailN := tracer.SlowdownAttribution(0.01)
		tailLink, tailShare := -1.0, 0.0
		if len(attr) > 0 {
			tailLink, tailShare = float64(attr[0].Link), attr[0].Share
			line := fmt.Sprintf("       p99 slowdown %.1fx:", p99)
			for i, ll := range attr {
				if i == 3 {
					break
				}
				line += fmt.Sprintf(" %.0f%% %s", 100*ll.Share, tracer.LinkNameOrIndex(ll.Link))
			}
			fmt.Printf("%s (lost service of the %d slowest traced flows)\n", line, tailN)
		}
		_ = tab.Append(load, med, p95, rate, float64(s.Events), float64(s.Allocs),
			float64(s.SolvedFlows), float64(s.MaxComponent), float64(s.Elided), float64(s.FullSolveFlows),
			float64(s.Batches),
			float64(ph[obs.PhaseAdmit]), float64(ph[obs.PhaseFlood]), float64(ph[obs.PhaseSolve]),
			float64(ph[obs.PhaseResplice]), float64(ph[obs.PhaseComplete]), float64(ph[obs.PhaseDrain]),
			float64(ph[obs.PhaseLoop]),
			p99, float64(tailN), tailLink, tailShare)
	}
	writeCSV("leapfct.csv", tab)
}
