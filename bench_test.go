package numfabric

// One benchmark per table and figure of the paper's evaluation (§6).
// Each benchmark regenerates the corresponding result at reduced scale
// (so `go test -bench .` completes in minutes) and reports the
// headline numbers as custom benchmark metrics; `cmd/numfabric
// -scale full` runs the paper-scale versions. README.md's engine
// comparison table records the measured headline numbers.

import (
	"math"
	"runtime"
	"testing"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// BenchmarkTable1_UtilityFunctions solves a representative NUM problem
// for every utility family of Table 1 and reports the induced
// allocations.
func BenchmarkTable1_UtilityFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// α-fair and weighted α-fair.
		p := core.NewProblem([]float64{10e9})
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(1, 1))
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(1, 3))
		r := oracle.Solve(p, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric(r.Rates[1]/r.Rates[0], "weighted-ratio")
		}

		// FCT minimization: small flow takes (nearly) everything.
		p2 := core.NewProblem([]float64{10e9})
		p2.AddFlow([]int{0}, core.FCTMin(10<<10, 0.125))
		p2.AddFlow([]int{0}, core.FCTMin(10<<20, 0.125))
		r2 := oracle.Solve(p2, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric(r2.Rates[0]/1e9, "fctmin-small-Gbps")
		}

		// Resource pooling: aggregate utility pools two paths.
		p3 := core.NewProblem([]float64{10e9, 10e9})
		g := p3.AddAggregate(core.ProportionalFair())
		p3.AddSubflow(g, []int{0})
		p3.AddSubflow(g, []int{1})
		r3 := oracle.Solve(p3, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric((r3.Rates[0]+r3.Rates[1])/1e9, "pooled-Gbps")
		}

		// Bandwidth functions: §2's water-fill via the NUM encoding.
		p4 := core.NewProblem([]float64{25e9})
		p4.AddFlow([]int{0}, core.NewBWUtility(harness.Fig2Flow1(), 5))
		p4.AddFlow([]int{0}, core.NewBWUtility(harness.Fig2Flow2(), 5))
		r4 := oracle.Solve(p4, oracle.SolveOptions{})
		if i == 0 {
			b.ReportMetric(r4.Rates[0]/1e9, "bwf-flow1-Gbps")
		}
	}
}

// BenchmarkTable2_DefaultParameters exercises a full NUMFabric
// stack construction with Table 2 defaults (the cost of setting up a
// fabric: topology, queues, agents).
func BenchmarkTable2_DefaultParameters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
		if fab.Hosts() != 32 {
			b.Fatal("bad fabric")
		}
	}
}

// BenchmarkFig2_BandwidthFunctionWaterfill reproduces Figure 2's
// allocations at 10 and 25 Gb/s.
func BenchmarkFig2_BandwidthFunctionWaterfill(b *testing.B) {
	funcs := []*core.BandwidthFunction{harness.Fig2Flow1(), harness.Fig2Flow2()}
	var last []float64
	for i := 0; i < b.N; i++ {
		oracle.BwESingleLink(10e9, funcs)
		last = oracle.BwESingleLink(25e9, funcs)
	}
	b.ReportMetric(last[0]/1e9, "flow1@25G-Gbps")
	b.ReportMetric(last[1]/1e9, "flow2@25G-Gbps")
}

// benchSemiDynamic runs a reduced semi-dynamic convergence experiment
// for one scheme and reports median/p95 convergence times in ms.
func benchSemiDynamic(b *testing.B, s harness.Scheme) {
	var res harness.SemiDynamicResult
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(s)
		cfg.Events = 6
		cfg.Seed = uint64(i + 1)
		res = harness.RunSemiDynamic(cfg)
	}
	b.ReportMetric(res.Median()*1e3, "median-ms")
	b.ReportMetric(res.P95()*1e3, "p95-ms")
	b.ReportMetric(float64(res.Unconverged), "unconverged")
}

// BenchmarkFig4a_ConvergenceCDF regenerates Figure 4a's convergence
// comparison: NUMFabric should be ~2-3x faster than DGD and RCP*.
func BenchmarkFig4a_ConvergenceCDF(b *testing.B) {
	b.Run("NUMFabric", func(b *testing.B) { benchSemiDynamic(b, harness.NUMFabric) })
	b.Run("DGD", func(b *testing.B) { benchSemiDynamic(b, harness.DGD) })
	b.Run("RCP", func(b *testing.B) { benchSemiDynamic(b, harness.RCP) })
}

// benchRateTrace samples one flow's rate trace and reports the
// fraction of samples within 10% of the Oracle rate — near zero for
// DCTCP (Figure 4b: "DCTCP flows essentially never converge") and
// high for NUMFabric (Figure 4c).
func benchRateTrace(b *testing.B, s harness.Scheme) {
	var within float64
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(s)
		cfg.Events = 3
		tr := harness.RunRateTrace(cfg, 0, 100*sim.Microsecond)
		n := 0
		for j := range tr.Rates {
			if tr.OracleRates[j] > 0 &&
				absF(tr.Rates[j]-tr.OracleRates[j])/tr.OracleRates[j] <= 0.10 {
				n++
			}
		}
		if len(tr.Rates) > 0 {
			within = float64(n) / float64(len(tr.Rates))
		}
	}
	b.ReportMetric(within*100, "samples-within-10pct-%")
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFig4b_DCTCPRateTimeseries regenerates Figure 4b.
func BenchmarkFig4b_DCTCPRateTimeseries(b *testing.B) {
	benchRateTrace(b, harness.DCTCP)
}

// BenchmarkFig4c_NUMFabricRateTimeseries regenerates Figure 4c.
func BenchmarkFig4c_NUMFabricRateTimeseries(b *testing.B) {
	benchRateTrace(b, harness.NUMFabric)
}

// benchDeviation runs the Figure 5 dynamic-workload experiment and
// reports the median deviation of the large-flow bins.
func benchDeviation(b *testing.B, cdf *workload.SizeCDF) {
	var med, medBig float64
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultDynamic(harness.NUMFabric, cdf, 0.4)
		cfg.Flows = 200
		cfg.Seed = uint64(i + 1)
		res := harness.RunDynamic(cfg)
		var all []float64
		for _, rec := range res.Records {
			all = append(all, rec.Deviation())
		}
		med = stats.Median(all)
		bins := res.DeviationByBin()
		if s, ok := bins["(10-100)"]; ok {
			medBig = s.Median
		}
	}
	b.ReportMetric(med, "median-deviation")
	b.ReportMetric(medBig, "median-dev-10-100BDP")
}

// BenchmarkFig5a_WebSearchDeviation regenerates Figure 5a.
func BenchmarkFig5a_WebSearchDeviation(b *testing.B) {
	benchDeviation(b, workload.WebSearch())
}

// BenchmarkFig5b_EnterpriseDeviation regenerates Figure 5b.
func BenchmarkFig5b_EnterpriseDeviation(b *testing.B) {
	benchDeviation(b, workload.Enterprise())
}

// BenchmarkFig6a_SensitivityDt regenerates Figure 6a (median
// convergence vs the window slack dt).
func BenchmarkFig6a_SensitivityDt(b *testing.B) {
	var pts []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 4
		pts = harness.SweepDT(cfg, []sim.Duration{
			6 * sim.Microsecond, 12 * sim.Microsecond, 24 * sim.Microsecond,
		})
	}
	for _, pt := range pts {
		b.ReportMetric(pt.MedianConvergence*1e3, "median-ms@dt"+itoa(int(pt.Param))+"us")
	}
}

// BenchmarkFig6b_SensitivityUpdateInterval regenerates Figure 6b.
func BenchmarkFig6b_SensitivityUpdateInterval(b *testing.B) {
	var pts []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 4
		pts = harness.SweepPriceInterval(cfg, []sim.Duration{
			30 * sim.Microsecond, 60 * sim.Microsecond, 128 * sim.Microsecond,
		})
	}
	for _, pt := range pts {
		b.ReportMetric(pt.MedianConvergence*1e3, "median-ms@"+itoa(int(pt.Param))+"us")
	}
}

// BenchmarkFig6c_SensitivityAlpha regenerates Figure 6c (α sweep at 1x
// and 2x-slowed control loops).
func BenchmarkFig6c_SensitivityAlpha(b *testing.B) {
	var normal, slowed []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 3
		normal, slowed = harness.SweepAlpha(cfg, []float64{0.5, 1, 2}, 2)
	}
	for i := range normal {
		a := itoa(int(normal[i].Param * 10))
		b.ReportMetric(normal[i].MedianConvergence*1e3, "1x-ms@a"+a)
		b.ReportMetric(slowed[i].MedianConvergence*1e3, "2x-ms@a"+a)
	}
}

// BenchmarkFig7_FCTvsPFabric regenerates Figure 7: normalized FCT of
// NUMFabric (FCT-min utility) vs pFabric at 40% and 60% load.
func BenchmarkFig7_FCTvsPFabric(b *testing.B) {
	var nf4, pf4, nf6, pf6 harness.FCTPoint
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultFCT()
		cfg.FlowsPerLoad = 150
		cfg.Seed = uint64(i + 1)
		nf4 = harness.RunFCT(cfg, harness.NUMFabric, 0.4)
		pf4 = harness.RunFCT(cfg, harness.PFabric, 0.4)
		nf6 = harness.RunFCT(cfg, harness.NUMFabric, 0.6)
		pf6 = harness.RunFCT(cfg, harness.PFabric, 0.6)
	}
	b.ReportMetric(nf4.MeanNormFCT, "numfabric@0.4")
	b.ReportMetric(pf4.MeanNormFCT, "pfabric@0.4")
	b.ReportMetric(nf6.MeanNormFCT, "numfabric@0.6")
	b.ReportMetric(pf6.MeanNormFCT, "pfabric@0.6")
}

// BenchmarkFig8a_ResourcePoolingThroughput regenerates Figure 8a:
// total throughput vs subflow count, pooling on and off.
func BenchmarkFig8a_ResourcePoolingThroughput(b *testing.B) {
	var one, pooled4, nopool4 harness.PoolingResult
	for i := 0; i < b.N; i++ {
		one = harness.RunPooling(harness.DefaultPooling(1, false))
		pooled4 = harness.RunPooling(harness.DefaultPooling(4, true))
		nopool4 = harness.RunPooling(harness.DefaultPooling(4, false))
	}
	b.ReportMetric(one.TotalThroughputPct(), "1subflow-%")
	b.ReportMetric(nopool4.TotalThroughputPct(), "4subflows-nopool-%")
	b.ReportMetric(pooled4.TotalThroughputPct(), "4subflows-pooled-%")
}

// BenchmarkFig8b_ResourcePoolingFairness regenerates Figure 8b: flow-
// level fairness under pooling.
func BenchmarkFig8b_ResourcePoolingFairness(b *testing.B) {
	var pooled, nopool harness.PoolingResult
	for i := 0; i < b.N; i++ {
		pooled = harness.RunPooling(harness.DefaultPooling(4, true))
		nopool = harness.RunPooling(harness.DefaultPooling(4, false))
	}
	b.ReportMetric(pooled.JainIndex(), "jain-pooled")
	b.ReportMetric(nopool.JainIndex(), "jain-nopool")
}

// BenchmarkFig9_BandwidthFunctions regenerates Figure 9: the capacity
// sweep of two bandwidth-function flows; reports worst-case deviation
// from the BwE water-fill.
func BenchmarkFig9_BandwidthFunctions(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts := harness.RunBWFCapacitySweep([]sim.BitRate{
			5 * sim.Gbps, 15 * sim.Gbps, 25 * sim.Gbps, 35 * sim.Gbps,
		}, 5, 10*sim.Millisecond)
		worst = 0
		for _, pt := range pts {
			worst = maxF(worst, absF(pt.Flow1-pt.Want1)/pt.Capacity)
			worst = maxF(worst, absF(pt.Flow2-pt.Want2)/pt.Capacity)
		}
	}
	b.ReportMetric(worst*100, "worst-dev-%of-capacity")
}

// BenchmarkFig10_BwFuncResourcePooling regenerates Figure 10:
// bandwidth functions + resource pooling across the 5→17 Gb/s step.
func BenchmarkFig10_BwFuncResourcePooling(b *testing.B) {
	var before, after harness.BWFPoolSample
	for i := 0; i < b.N; i++ {
		samples := harness.RunBWFPooling(5, 15*sim.Millisecond, 30*sim.Millisecond, sim.Millisecond)
		for _, s := range samples {
			if s.At < sim.Time(14*sim.Millisecond) {
				before = s
			}
			after = s
		}
	}
	b.ReportMetric(before.Flow1/1e9, "flow1-before-Gbps")
	b.ReportMetric(before.Flow2/1e9, "flow2-before-Gbps")
	b.ReportMetric(after.Flow1/1e9, "flow1-after-Gbps")
	b.ReportMetric(after.Flow2/1e9, "flow2-after-Gbps")
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- Fluid engine benchmarks ---

// engineBenchConfig is the shared scenario for the engine comparison:
// a web-search Poisson workload on the scaled leaf-spine fabric.
func engineBenchConfig(flows int) harness.DynamicConfig {
	cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.4)
	cfg.Flows = flows
	cfg.SkipFluidIdeal = true
	return cfg
}

// BenchmarkEngineFluidVsPacket runs the identical dynamic workload
// through the packet-level simulator and the fluid engine and reports
// flows simulated per wall-clock second for each — the headline
// fast-path metric.
func BenchmarkEngineFluidVsPacket(b *testing.B) {
	b.Run("packet", func(b *testing.B) {
		flows := 0
		for i := 0; i < b.N; i++ {
			res := harness.RunDynamic(engineBenchConfig(200))
			flows += len(res.Records) + res.Unfinished
		}
		b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/s")
	})
	b.Run("fluid", func(b *testing.B) {
		flows := 0
		for i := 0; i < b.N; i++ {
			res := harness.RunDynamicFluid(engineBenchConfig(200))
			flows += len(res.Records) + res.Unfinished
		}
		b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/s")
	})
}

// BenchmarkFluidFatTree simulates a 50k-flow web-search workload on a
// k=8 fat-tree (128 hosts, 768 directed links) under fluid xWI
// dynamics — a regime the packet engine cannot reach — and reports
// flows/s plus the speedup over the packet engine's extrapolated rate
// (the packet engine's cost is at best linear in flow count, so its
// small-scale flows/s is an upper bound on its large-scale rate).
func BenchmarkFluidFatTree(b *testing.B) {
	pktStart := time.Now()
	pktRes := harness.RunDynamic(engineBenchConfig(200))
	pktRate := float64(len(pktRes.Records)+pktRes.Unfinished) / time.Since(pktStart).Seconds()

	const nflows = 50000
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		ft := fluid.NewFatTree(8, 10e9)
		rng := sim.NewRNG(uint64(i) + 1)
		arrivals := workload.Poisson(workload.PoissonConfig{
			Hosts:    ft.Hosts(),
			HostLink: 10 * sim.Gbps,
			Load:     0.5,
			CDF:      workload.WebSearch(),
			Duration: sim.Duration(sim.Forever / 2),
			MaxFlows: nflows,
		}, rng)
		eng := fluid.NewEngine(ft.Net, fluid.Config{Allocator: fluid.NewXWI()})
		var last sim.Time
		for _, a := range arrivals {
			last = a.At
			path := ft.Route(a.Src, a.Dst, rng.Intn(16))
			eng.AddFlow(path, core.ProportionalFair(), a.Size, a.At.Seconds())
		}
		eng.Run(last.Seconds() + 1.0)
		done += len(eng.Finished())
	}
	fluidRate := float64(done) / b.Elapsed().Seconds()
	b.ReportMetric(fluidRate, "flows/s")
	b.ReportMetric(fluidRate/pktRate, "speedup-vs-packet")
}

// leapBenchSchedule builds the shared sparse web-search schedule for
// the leap-vs-epoch comparison: nflows Poisson arrivals on a k=8
// fat-tree with precomputed ECMP path picks, so both engines play the
// byte-identical workload.
func leapBenchSchedule(nflows int, load float64, seed uint64) (*fluid.FatTree, []workload.Arrival, [][]int) {
	ft := fluid.NewFatTree(8, 10e9)
	arrivals, paths := harness.FatTreeWebSearch(ft, load, nflows, sim.NewRNG(seed))
	return ft, arrivals, paths
}

// normFCTStats returns the median and p95 of FCT normalized by each
// flow's line-rate wire time — the scale-free distribution the two
// engines must agree on.
func normFCTStats(flows []*fluid.Flow, linkRate float64) (median, p95 float64, unfinished int) {
	var norm []float64
	for _, f := range flows {
		if !f.Done() {
			unfinished++
			continue
		}
		norm = append(norm, f.FCT()*linkRate/(float64(f.SizeBytes)*8))
	}
	return stats.Median(norm), stats.Percentile(norm, 0.95), unfinished
}

// BenchmarkLeapFCT is the event-driven engine's headline: a
// million-flow sparse web-search workload on a k=8 fat-tree, played
// through the leap engine and through the epoch engine at matched
// accuracy, under the identical stationary WaterFill allocator (so
// the engines differ only in how they advance time). "Matched
// accuracy" pins the epoch: leap's event times are exact, and the
// epoch engine's systematic error — each arrival waits for the next
// epoch boundary — shrinks with the epoch. The median web-search
// flow's line-rate FCT is ~42 µs, so at the 100 µs default the epoch
// engine is >2× off on this workload, at 2 µs ~2.3% off at the
// median, and at the 1 µs used here the two distributions agree
// within ~1% — comfortably inside the 5% acceptance band the run
// asserts. The sparse load (1.5%) is the leap
// regime the ROADMAP names: mean inter-event gap ~110 µs >> the
// accuracy epoch, so the epoch engine burns almost all its steps
// re-draining an unchanged allocation while leap pays only per event
// — and most of those events hit the independence fast path, so even
// the allocator mostly stays idle.
func BenchmarkLeapFCT(b *testing.B) {
	const (
		nflows   = 1_000_000
		load     = 0.015
		epochAcc = 1e-6
		linkRate = 10e9
	)
	var speedup, medRatio, p95Ratio, leapRate float64
	for i := 0; i < b.N; i++ {
		ft, arrivals, paths := leapBenchSchedule(nflows, load, uint64(i)+1)
		last := arrivals[len(arrivals)-1].At.Seconds()

		runtime.GC()
		wallE := time.Now()
		fe := fluid.NewEngine(ft.Net, fluid.Config{Epoch: epochAcc, Allocator: fluid.NewWaterFill()})
		feFlows := make([]*fluid.Flow, len(arrivals))
		for j, a := range arrivals {
			feFlows[j] = fe.AddFlow(paths[j], core.ProportionalFair(), a.Size, a.At.Seconds())
		}
		fe.Run(last + 1.0)
		elapsedE := time.Since(wallE)
		medE, p95E, unfinE := normFCTStats(feFlows, linkRate)
		feFlows, fe = nil, nil

		runtime.GC()
		wallL := time.Now()
		le := leap.NewEngine(ft.Net, leap.Config{Allocator: fluid.NewWaterFill()})
		leFlows := make([]*fluid.Flow, len(arrivals))
		for j, a := range arrivals {
			leFlows[j] = le.AddFlow(paths[j], core.ProportionalFair(), a.Size, a.At.Seconds())
		}
		le.Run(math.Inf(1))
		elapsedL := time.Since(wallL)
		medL, p95L, unfinL := normFCTStats(leFlows, linkRate)

		if unfinE > 0 || unfinL > 0 {
			b.Fatalf("unfinished flows: epoch %d, leap %d", unfinE, unfinL)
		}
		speedup = elapsedE.Seconds() / elapsedL.Seconds()
		medRatio = medL / medE
		p95Ratio = p95L / p95E
		leapRate = float64(len(leFlows)) / elapsedL.Seconds()
		// The speed claim only counts at equal accuracy: the two FCT
		// distributions must agree within 5% at the median and p95.
		if math.Abs(medRatio-1) > 0.05 || math.Abs(p95Ratio-1) > 0.05 {
			b.Errorf("FCT distributions disagree: median ratio %.3f, p95 ratio %.3f (want within 5%%)",
				medRatio, p95Ratio)
		}
		// Component-local reallocation must cut the allocator work
		// (allocations × flows-per-solve) at least 2× against the
		// global-re-solve counterfactual the engine tracks.
		s := le.Stats()
		if 2*s.SolvedFlows > s.FullSolveFlows {
			b.Errorf("allocator work %d flows vs %d global-equivalent: < 2x reduction",
				s.SolvedFlows, s.FullSolveFlows)
		}
		b.ReportMetric(float64(s.SolvedFlows), "alloc-flows")
		b.ReportMetric(float64(s.FullSolveFlows)/math.Max(float64(s.SolvedFlows), 1), "alloc-work-reduction")
		b.ReportMetric(float64(s.MaxComponent), "max-component")
	}
	b.ReportMetric(leapRate, "leap-flows/s")
	b.ReportMetric(speedup, "speedup-vs-epoch")
	b.ReportMetric(medRatio, "median-fct-ratio")
	b.ReportMetric(p95Ratio, "p95-fct-ratio")
}

// BenchmarkLeapComponents is the component-local A/B: the same
// web-search schedule — denser than BenchmarkLeapFCT's, so coupled
// events dominate — through the leap engine twice, component-local
// versus Config{Global: true} (every active-set change re-solves the
// whole active set). The FCT distributions must match exactly
// (WaterFill is separable across components; the engine's property
// test pins byte-identity), and the reported metrics quantify the
// win: allocator flows-per-solve, wall-clock speedup, and the
// component sizes the workload actually produces.
func BenchmarkLeapComponents(b *testing.B) {
	const (
		nflows   = 200_000
		load     = 0.10
		linkRate = 10e9
	)
	var localRate, speedup, workRatio, avgComp float64
	for i := 0; i < b.N; i++ {
		ft, arrivals, paths := leapBenchSchedule(nflows, load, uint64(i)+1)

		run := func(global bool) ([]*fluid.Flow, leap.Stats, float64) {
			runtime.GC()
			wall := time.Now()
			eng := leap.NewEngine(ft.Net, leap.Config{Allocator: fluid.NewWaterFill(), Global: global})
			flows := make([]*fluid.Flow, len(arrivals))
			for j, a := range arrivals {
				flows[j] = eng.AddFlow(paths[j], core.ProportionalFair(), a.Size, a.At.Seconds())
			}
			eng.Run(math.Inf(1))
			return flows, eng.Stats(), time.Since(wall).Seconds()
		}
		lFlows, lStats, lWall := run(false)
		gFlows, gStats, gWall := run(true)

		medL, p95L, _ := normFCTStats(lFlows, linkRate)
		medG, p95G, _ := normFCTStats(gFlows, linkRate)
		if medL != medG || p95L != p95G {
			b.Errorf("component-local FCTs diverge from global: median %v vs %v, p95 %v vs %v",
				medL, medG, p95L, p95G)
		}
		if 2*lStats.SolvedFlows > gStats.SolvedFlows {
			b.Errorf("allocator work %d flows vs %d global: < 2x reduction",
				lStats.SolvedFlows, gStats.SolvedFlows)
		}
		localRate = float64(len(lFlows)) / lWall
		speedup = gWall / lWall
		workRatio = float64(gStats.SolvedFlows) / math.Max(float64(lStats.SolvedFlows), 1)
		avgComp = float64(lStats.SolvedFlows) / math.Max(float64(lStats.Allocs), 1)
	}
	b.ReportMetric(localRate, "flows/s")
	b.ReportMetric(speedup, "speedup-vs-global")
	b.ReportMetric(workRatio, "alloc-work-reduction")
	b.ReportMetric(avgComp, "avg-component")
}

// BenchmarkFluidPooling runs the ≥10k-subflow multipath fat-tree
// resource-pooling scenario — 1280 aggregate flow groups, each
// pooling 8 ECMP subflows under one proportional-fair utility of the
// aggregate rate, on a k=8 fat-tree — through the fluid engine's
// group-aware xWI dynamics, and reports the realized fraction of the
// pooled optimum (host line rate per group; the fabric is
// full-bisection). The packet engine's §6.3 run tops out near ~256
// subflows; this is two orders of magnitude past it.
func BenchmarkFluidPooling(b *testing.B) {
	cfg := harness.DefaultFatTreePooling(true)
	subflows := cfg.Groups * cfg.Subflows
	if subflows < 10000 {
		b.Fatalf("scenario has %d subflows, want ≥ 10000", subflows)
	}
	var res harness.PoolingResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res = harness.RunFatTreePooling(cfg)
	}
	b.ReportMetric(float64(subflows), "subflows")
	b.ReportMetric(float64(subflows)*float64(cfg.Epochs)*float64(b.N)/b.Elapsed().Seconds(), "subflow-epochs/s")
	b.ReportMetric(res.TotalThroughputPct(), "total-pct-of-optimal")
	b.ReportMetric(res.JainIndex(), "jain")
}
