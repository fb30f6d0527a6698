package leap

import (
	"math"
	"testing"

	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// traceEverything returns a tracer that keeps every completion, for
// property tests that must see the whole population.
func traceEverything() *obs.FlowTracer {
	return obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
}

// flowTraceConfigs are the engine modes the tracing properties must
// hold across: the component-local and the global solve paths.
func flowTraceConfigs() map[string]Config {
	return map[string]Config{
		"component": {},
		"global":    {Global: true},
	}
}

// TestFlowTraceDoesNotChangeResults: attaching the flow tracer must
// leave completions byte-identical to a detached run in every engine
// mode — the tracer only reads engine state.
func TestFlowTraceDoesNotChangeResults(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		_, bf, bg := runDense(Config{}, seed)
		for name, cfg := range flowTraceConfigs() {
			cfg.Obs = obs.Hooks{FlowTrace: traceEverything()}
			_, tf, tg := runDense(cfg, seed)
			assertSameCompletions(t, "flowtrace-"+name, seed, bf, bg, tf, tg)
		}
	}
}

// TestFlowTraceAttributionIdentity pins the tracing subsystem's two
// exactness invariants for every traced flow, across every engine
// mode:
//
//  1. Tiling: the rate segments cover [Arrive, Finish] exactly — the
//     first segment starts at the arrival, boundaries strictly
//     increase, and the service they integrate to is the flow's size.
//  2. Attribution: the per-link lost-service integrals
//     ∫(LineRate−rate)dt / LineRate sum to FCT − IdealFCT.
//
// Both must hold with the engine's own completion times, byte-exact
// modulo float accumulation (1e-6 relative).
func TestFlowTraceAttributionIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for name, cfg := range flowTraceConfigs() {
			ft := traceEverything()
			cfg.Obs = obs.Hooks{FlowTrace: ft}
			_, fs, _ := runDense(cfg, seed)

			plain := 0
			for _, f := range fs {
				if f.Group == nil && f.SizeBytes > 0 {
					plain++
				}
			}
			s := ft.Summary()
			if s.Tracked != uint64(plain) || s.Completed != uint64(plain) || s.Active != 0 {
				t.Fatalf("%s seed %d: summary %+v, want %d plain flows tracked and done",
					name, seed, s, plain)
			}

			recs := map[int]*obs.FlowRecord{}
			for _, r := range ft.Records() {
				recs[r.ID] = r
			}
			for _, f := range fs {
				if f.Group != nil {
					if recs[f.ID] != nil {
						t.Fatalf("%s seed %d: group member %d traced", name, seed, f.ID)
					}
					continue
				}
				r := recs[f.ID]
				if r == nil {
					t.Fatalf("%s seed %d: flow %d has no record", name, seed, f.ID)
				}
				if !r.Finished || r.Finish != f.Finish || r.Arrive != f.Arrive {
					t.Fatalf("%s seed %d flow %d: record times (%v, %v) != engine (%v, %v)",
						name, seed, f.ID, r.Arrive, r.Finish, f.Arrive, f.Finish)
				}

				// Tiling: first segment at the arrival, strictly
				// increasing boundaries, all inside [Arrive, Finish].
				if len(r.Segs) == 0 || r.Segs[0].T != r.Arrive {
					t.Fatalf("%s seed %d flow %d: segments do not start at arrival: %+v",
						name, seed, f.ID, r.Segs)
				}
				for i := 1; i < len(r.Segs); i++ {
					if r.Segs[i].T <= r.Segs[i-1].T {
						t.Fatalf("%s seed %d flow %d: segment boundaries not increasing at %d: %+v",
							name, seed, f.ID, i, r.Segs)
					}
				}
				if last := r.Segs[len(r.Segs)-1].T; last > r.Finish {
					t.Fatalf("%s seed %d flow %d: segment starts after finish (%v > %v)",
						name, seed, f.ID, last, r.Finish)
				}
				// Every bottleneck lies on the flow's path (or is the
				// -1 "unattributed" sentinel, which the engine only
				// uses without a BottleneckReporter).
				for i, seg := range r.Segs {
					onPath := seg.Bneck == -1
					for _, l := range f.Links {
						if int32(l) == seg.Bneck {
							onPath = true
						}
					}
					if !onPath {
						t.Fatalf("%s seed %d flow %d seg %d: bottleneck %d not on path %v",
							name, seed, f.ID, i, seg.Bneck, f.Links)
					}
				}
				// The segments integrate to the flow's service: with no
				// truncation, ∫rate·dt over the tiling equals size·8.
				if r.Truncated == 0 {
					var bits float64
					for i, seg := range r.Segs {
						end := r.Finish
						if i+1 < len(r.Segs) {
							end = r.Segs[i+1].T
						}
						bits += seg.Rate * (end - seg.T)
					}
					want := float64(r.SizeBytes) * 8
					if math.Abs(bits-want) > 1e-6*want {
						t.Fatalf("%s seed %d flow %d: segments integrate to %g bits, size is %g",
							name, seed, f.ID, bits, want)
					}
				}
				// The attribution identity.
				want := r.FCT() - r.IdealFCT()
				if got := r.TotalLost(); math.Abs(got-want) > 1e-6*r.FCT() {
					t.Fatalf("%s seed %d flow %d: lost %g != FCT-ideal %g",
						name, seed, f.ID, got, want)
				}
			}
		}
	}
}

// TestFlowTraceBatchOrdinals: solve segments carry the ordinal of the
// batch that produced them — never beyond the engine's batch count,
// and non-decreasing along each flow's lifetime.
func TestFlowTraceBatchOrdinals(t *testing.T) {
	ft := traceEverything()
	e, _, _ := runDense(Config{Obs: obs.Hooks{FlowTrace: ft}}, 1)
	batches := uint32(e.Stats().Batches)
	sawBatch := false
	for _, r := range ft.Records() {
		last := uint32(0)
		for _, seg := range r.Segs {
			if seg.Batch > batches {
				t.Fatalf("flow %d: batch ordinal %d beyond the run's %d batches", r.ID, seg.Batch, batches)
			}
			if seg.Batch < last {
				t.Fatalf("flow %d: batch ordinal went back from %d to %d", r.ID, last, seg.Batch)
			}
			last = seg.Batch
			if seg.Batch > 0 {
				sawBatch = true
			}
		}
	}
	if !sawBatch {
		t.Error("no batch ordinals recorded")
	}
}

// TestFlowTraceLinkLoadStaysFeasible: with the exact water-filling
// allocator the traced per-link load must never exceed capacity over
// any settled interval — the tracer's link accounting mirrors the
// engine's real allocations.
func TestFlowTraceLinkLoadStaysFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ft := traceEverything()
		runDense(Config{Obs: obs.Hooks{FlowTrace: ft}}, seed)
		for _, ls := range ft.LinksSnapshot() {
			if ls.PeakUtil > 1+1e-9 {
				t.Errorf("seed %d link %d: settled peak utilization %g > 1",
					seed, ls.Link, ls.PeakUtil)
			}
			// Load is delta-accumulated, so cancellation leaves float
			// dust — but nothing material relative to capacity.
			if math.Abs(ls.Load) > 1e-9*ls.Capacity || ls.Active != 0 {
				t.Errorf("seed %d link %d: residual load %g / %d active after completion",
					seed, ls.Link, ls.Load, ls.Active)
			}
		}
	}
}

// TestFlowTraceBottleneckIsMinSlack: on a two-link path where one
// link is saturated by cross traffic, the traced bottleneck of the
// victim flow must be the contended link, not the idle one.
func TestFlowTraceBottleneckIsMinSlack(t *testing.T) {
	ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 40e9}), Config{
		Obs: obs.Hooks{FlowTrace: ft},
	})
	// Two flows share link 0; the victim also crosses the fat link 1.
	victim := e.AddFlow([]int{0, 1}, nil, 1<<20, 0)
	e.AddFlow([]int{0}, nil, 1<<20, 0)
	e.Run(math.Inf(1))
	if victim.Finish == 0 {
		t.Fatal("victim did not finish")
	}
	recs := ft.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if r.ID != victim.ID {
			continue
		}
		for i, seg := range r.Segs {
			if seg.Bneck != 0 {
				t.Errorf("victim seg %d: bottleneck %d, want contended link 0 (segs %+v)",
					i, seg.Bneck, r.Segs)
			}
		}
		// The victim's line rate is the thin link, so time lost to
		// sharing is attributed to link 0.
		if len(r.LostLinks) != 1 || r.LostLinks[0] != 0 {
			t.Errorf("victim attribution on %v, want [0]", r.LostLinks)
		}
	}
}
