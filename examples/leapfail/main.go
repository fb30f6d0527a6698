// Fault injection on the leap engine: scripted link/switch failures,
// stranded-flow survival, and degradation accounting.
//
// A k=4 fat-tree plays a small web-search workload three times:
//
//  1. healthy — no faults, the baseline;
//  2. faulted — a scripted schedule (workload.ParseFaults +
//     harness.ExpandFaults) fails aggregation switch 0.0 (all eight of
//     its directed links) and later one host link, each recovering a
//     few milliseconds on;
//  3. faulted again with Global re-solves — every active-set change
//     re-solves the whole network instead of the touched components;
//     fault events ride the same epoch-stamped heap as completions and
//     retire in a canonical order, so the global run must match run 2
//     bitwise.
//
// Flows crossing a dead link are stranded — rate zero, completion
// cancelled, payload frozen — and resume automatically when the link
// recovers, so with every failure paired to a recovery the run still
// finishes every flow. The engine accounts the degradation
// (Stats.{Faults,Stranded,Resumed,StrandedSec,CapacityLostBitSec}),
// and a FlowTracer on the faulted run checks the lost-service
// identity per flow: the per-link lost-service integrals — stranded
// time included, attributed to the failed bottleneck — sum to
// FCT − IdealFCT.
package main

import (
	"fmt"
	"math"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

func main() {
	const (
		k, linkRate = 4, 10e9
		load, flows = 0.3, 400
		seed        = uint64(1)
		spec        = "agg0.0@10ms+8ms,link3@25ms+5ms"
	)

	run := func(faultSpec string, global bool) (*leap.Engine, []*fluid.Flow, *obs.FlowTracer) {
		// A fresh fat-tree per run: faults mutate its capacities in place.
		ft := fluid.NewFatTree(k, linkRate)
		arrivals, paths := harness.FatTreeWebSearch(ft, load, flows, sim.NewRNG(seed))
		tracer := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
		tracer.SetLinkName(ft.LinkLabel)
		e := leap.NewEngine(ft.Net, leap.Config{
			Global: global,
			Obs:    obs.Hooks{FlowTrace: tracer},
		})
		if faultSpec != "" {
			scripted, err := workload.ParseFaults(faultSpec)
			if err != nil {
				panic(err)
			}
			sched, err := harness.ExpandFaults(ft, scripted)
			if err != nil {
				panic(err)
			}
			harness.ScheduleFaults(e, sched)
		}
		fs := make([]*fluid.Flow, len(arrivals))
		for i, a := range arrivals {
			fs[i] = e.AddFlow(paths[i], core.ProportionalFair(), a.Size, a.At.Seconds())
		}
		e.Run(math.Inf(1))
		return e, fs, tracer
	}

	slowdowns := func(fs []*fluid.Flow) []float64 {
		var out []float64
		for _, f := range fs {
			if !f.Done() {
				panic(fmt.Sprintf("flow %d never finished — a stranded flow did not resume", f.ID))
			}
			out = append(out, f.FCT()/(float64(f.SizeBytes)*8/linkRate))
		}
		return out
	}

	healthy, hf, _ := run("", false)
	faulted, ff, tracer := run(spec, false)
	_, gf, _ := run(spec, true)

	// Byte-identity: the global faulted run must equal the
	// component-local faulted run at every flow.
	for i := range ff {
		if math.Float64bits(ff[i].Finish) != math.Float64bits(gf[i].Finish) {
			panic(fmt.Sprintf("flow %d: global finish %v != component-local %v",
				ff[i].ID, gf[i].Finish, ff[i].Finish))
		}
	}

	hs, fs := healthy.Stats(), faulted.Stats()
	if hs.Faults != 0 || fs.Faults == 0 {
		panic(fmt.Sprintf("fault counters wrong: healthy %d, faulted %d", hs.Faults, fs.Faults))
	}
	if fs.Stranded != fs.Resumed || fs.LinksDown != 0 {
		panic(fmt.Sprintf("every failure recovers, yet stranded %d != resumed %d (links down %d)",
			fs.Stranded, fs.Resumed, fs.LinksDown))
	}

	// Lost-service identity on every traced flow of the faulted run:
	// ΣLostSecs (stranded time included) == FCT − IdealFCT.
	checked := 0
	for _, r := range tracer.Records() {
		if gap := r.FCT() - r.IdealFCT(); math.Abs(r.TotalLost()-gap) > 1e-6 {
			panic(fmt.Sprintf("flow %d: lost-service identity broken: %v vs %v",
				r.ID, r.TotalLost(), gap))
		}
		checked++
	}

	hNorm, fNorm := slowdowns(hf), slowdowns(ff)
	fmt.Printf("k=%d fat-tree, %d web-search flows, faults %q\n\n", k, len(hf), spec)
	fmt.Printf("%-8s %7s %9s %8s %10s %11s %9s %9s\n",
		"run", "faults", "stranded", "resumed", "strand(ms)", "lost(Gb·s)", "p50 slow", "p95 slow")
	fmt.Printf("%-8s %7d %9d %8d %10.3f %11.3f %9.2f %9.2f\n",
		"healthy", hs.Faults, hs.Stranded, hs.Resumed, hs.StrandedSec*1e3,
		hs.CapacityLostBitSec/1e9, stats.Median(hNorm), stats.Percentile(hNorm, 0.95))
	fmt.Printf("%-8s %7d %9d %8d %10.3f %11.3f %9.2f %9.2f\n",
		"faulted", fs.Faults, fs.Stranded, fs.Resumed, fs.StrandedSec*1e3,
		fs.CapacityLostBitSec/1e9, stats.Median(fNorm), stats.Percentile(fNorm, 0.95))
	fmt.Printf("\nall %d flows finished in every run; %d stranded flows resumed; "+
		"lost-service identity held on %d traced flows; global run bitwise-identical\n",
		len(hf), fs.Resumed, checked)
}
