package leap

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/sim"
)

func almostEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// TestSingleFlowExactFCT: one finite flow on one link completes in
// exactly size×8/capacity seconds, in one allocation.
func TestSingleFlowExactFCT(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 10<<20, 0)
	e.Run(math.Inf(1))
	want := float64(10<<20) * 8 / 10e9
	if !f.Done() || !almostEq(f.FCT(), want, 1e-12) {
		t.Fatalf("FCT = %v, want %v", f.FCT(), want)
	}
	// A lone flow is independent end to end: the fast path never
	// invokes the allocator.
	if e.Allocs() != 0 {
		t.Errorf("allocs = %d, want 0", e.Allocs())
	}
}

// TestTwoFlowsPiecewise: the textbook two-flow overlap on a shared
// 10G link, checked against the closed-form piecewise solution.
//
//	A: 10 MB at t=0      alone 10G until B arrives
//	B: 2.5 MB at t=2ms   both at 5G until B finishes at 6ms
//	                     A alone again at 10G, finishes at 10ms
func TestTwoFlowsPiecewise(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	sizeA := int64(math.Round(10e9 * 8e-3 / 8)) // 8 ms of wire time
	sizeB := int64(math.Round(10e9 * 2e-3 / 8)) // 2 ms of wire time
	a := e.AddFlow([]int{0}, core.ProportionalFair(), sizeA, 0)
	b := e.AddFlow([]int{0}, core.ProportionalFair(), sizeB, 2e-3)
	e.Run(math.Inf(1))
	if !almostEq(b.Finish, 6e-3, 1e-9) {
		t.Errorf("B finish = %v, want 6ms", b.Finish)
	}
	if !almostEq(a.Finish, 10e-3, 1e-9) {
		t.Errorf("A finish = %v, want 10ms", a.Finish)
	}
	if fin := e.Finished(); len(fin) != 2 || fin[0] != b || fin[1] != a {
		t.Errorf("finished order wrong: %v", fin)
	}
}

// TestMatchesEpochEngine: a seeded multi-link scenario through leap
// and through the fluid epoch engine at a fine epoch produces the same
// completion times (identical WaterFill allocator; the only epoch-
// engine error left is arrival quantization, bounded by one epoch).
func TestMatchesEpochEngine(t *testing.T) {
	caps := []float64{10e9, 10e9, 10e9, 40e9}
	paths := [][]int{{0, 3}, {1, 3}, {2, 3}, {0, 3}, {1, 3}}
	sizes := []int64{4 << 20, 1 << 20, 2 << 20, 512 << 10, 8 << 20}
	at := []float64{0, 100e-6, 250e-6, 400e-6, 450e-6}

	le := NewEngine(fluid.NewNetwork(caps), Config{Allocator: fluid.NewWaterFill()})
	fe := fluid.NewEngine(fluid.NewNetwork(caps), fluid.Config{
		Epoch:     1e-6,
		Allocator: fluid.NewWaterFill(),
	})
	var lf, ff []*fluid.Flow
	for i := range paths {
		lf = append(lf, le.AddFlow(paths[i], core.ProportionalFair(), sizes[i], at[i]))
		ff = append(ff, fe.AddFlow(paths[i], core.ProportionalFair(), sizes[i], at[i]))
	}
	le.Run(math.Inf(1))
	fe.Run(1)
	for i := range lf {
		if !lf[i].Done() || !ff[i].Done() {
			t.Fatalf("flow %d unfinished (leap %v epoch %v)", i, lf[i].Done(), ff[i].Done())
		}
		if !almostEq(lf[i].FCT(), ff[i].FCT(), 0.01) {
			t.Errorf("flow %d: leap FCT %.6g, epoch FCT %.6g (>1%% apart)",
				i, lf[i].FCT(), ff[i].FCT())
		}
	}
}

// TestGroupCompletesAsUnit: a finite two-path group drains its shared
// payload at the members' total rate and completes as one event, with
// members stamped at the group's finish.
func TestGroupCompletesAsUnit(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9, 10e9})
	e := NewEngine(net, Config{})
	size := int64(math.Round(20e9 * 1e-3 / 8)) // 1 ms at the pooled 20G
	g := e.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), size, 0)
	e.Run(math.Inf(1))
	if !g.Done() || !almostEq(g.FCT(), 1e-3, 1e-6) {
		t.Fatalf("group FCT = %v, want 1ms", g.FCT())
	}
	for i, m := range g.Members {
		if !m.Done() || m.Finish != g.Finish {
			t.Errorf("member %d finish %v != group %v", i, m.Finish, g.Finish)
		}
	}
	if len(e.FinishedGroups()) != 1 || len(e.Finished()) != 2 {
		t.Errorf("finished: %d groups, %d flows", len(e.FinishedGroups()), len(e.Finished()))
	}
}

// TestGroupVsFlowSharing: a group competing with a plain flow on one
// of its paths gets the multi-path benefit (pooled rate above a single
// link's fair share).
func TestGroupVsFlowSharing(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9, 10e9})
	e := NewEngine(net, Config{})
	g := e.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 0, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	e.Step() // admit + allocate
	got := g.Rate()
	// WaterFill's bottleneck-aware split: the member on the contended
	// link sheds weight onto the free one, so the pooled rate clears
	// what any single 10G path could carry.
	if got < 10.5e9 {
		t.Errorf("pooled rate %.3g, want > 10.5G", got)
	}
}

// TestAddMemberMovesPayload: attaching a finite flow to a group via
// the constructor API folds its payload into the group's shared
// Remaining; the whole payload drains at the pooled rate and the
// member completes with the group, never alone.
func TestAddMemberMovesPayload(t *testing.T) {
	g := fluid.NewGroup(0, core.ProportionalFair(), 0, 0)
	a := fluid.NewFlow(0, []int{0}, core.ProportionalFair(), 1<<20, 0)
	b := fluid.NewFlow(1, []int{1}, core.ProportionalFair(), 1<<20, 0)
	g.AddMember(a)
	g.AddMember(b)
	if a.SizeBytes != 0 || b.SizeBytes != 0 {
		t.Fatal("member payloads not moved to the group")
	}
	if g.SizeBytes != 2<<20 || g.Remaining != float64(2<<20) {
		t.Fatalf("group payload = %d/%g, want %d", g.SizeBytes, g.Remaining, 2<<20)
	}
}

// TestFastPathAfterDrainToEmpty: once every flow (including a coupled
// pair whose completion latches a reallocation) has drained out, the
// next isolated arrival still takes the zero-allocation fast path.
func TestFastPathAfterDrainToEmpty(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0) // coupled pair
	e.Run(math.Inf(1))
	base := e.Allocs()
	if base == 0 {
		t.Fatal("coupled pair should have allocated")
	}
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, e.Now()+1e-3)
	e.Run(math.Inf(1))
	if e.Allocs() != base {
		t.Errorf("isolated arrival after drain-to-empty allocated (%d -> %d allocs)",
			base, e.Allocs())
	}
}

// TestUnboundedReachesFixedPoint: with only unbounded flows active and
// no arrivals pending, Step reports no further events (rates constant
// forever) instead of spinning.
func TestUnboundedReachesFixedPoint(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	steps := 0
	for e.Step() {
		if steps++; steps > 10 {
			t.Fatal("engine did not reach a fixed point")
		}
	}
	if f.Done() {
		t.Error("unbounded flow should not complete")
	}
	if f.Rate != 10e9 {
		t.Errorf("rate = %v, want 10G", f.Rate)
	}
}

// TestZeroRateNoLivelock: a flow the allocator starves (zero weight
// path shadowed — emulated with a zero-capacity link) produces no
// completion event; the engine halts rather than spinning.
func TestZeroRateNoLivelock(t *testing.T) {
	net := fluid.NewNetwork([]float64{0})
	e := NewEngine(net, Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.Run(math.Inf(1))
	if f.Done() {
		t.Error("starved flow should not complete")
	}
}

// buildSchedule adds a deterministic mixed workload to an engine and
// returns the flows (used by the determinism test, twice).
func buildSchedule(e *Engine) []*fluid.Flow {
	var fs []*fluid.Flow
	links := [][]int{{0, 2}, {1, 2}, {0, 2}, {1, 2}}
	for i := 0; i < 40; i++ {
		sz := int64(64<<10 + (i%7)*(128<<10))
		at := float64(i%11) * 37e-6
		fs = append(fs, e.AddFlow(links[i%len(links)], core.ProportionalFair(), sz, at))
	}
	// Two finite groups and a late burst of synchronized arrivals.
	e.AddGroup([][]int{{0, 2}, {1, 2}}, core.ProportionalFair(), 1<<20, 50e-6)
	e.AddGroup([][]int{{0, 2}, {1, 2}}, core.ProportionalFair(), 2<<20, 120e-6)
	for i := 0; i < 8; i++ {
		fs = append(fs, e.AddFlow(links[i%2], core.ProportionalFair(), 256<<10, 300e-6))
	}
	return fs
}

// TestDeterministicEventOrdering: two engines fed the identical
// schedule produce byte-identical event orderings — same completion
// order, bitwise-equal finish times, same event and allocation counts.
func TestDeterministicEventOrdering(t *testing.T) {
	caps := []float64{10e9, 10e9, 25e9}
	e1 := NewEngine(fluid.NewNetwork(caps), Config{})
	e2 := NewEngine(fluid.NewNetwork(caps), Config{})
	buildSchedule(e1)
	buildSchedule(e2)
	e1.Run(math.Inf(1))
	e2.Run(math.Inf(1))
	if e1.Events() != e2.Events() || e1.Allocs() != e2.Allocs() {
		t.Fatalf("run shape differs: events %d vs %d, allocs %d vs %d",
			e1.Events(), e2.Events(), e1.Allocs(), e2.Allocs())
	}
	f1, f2 := e1.Finished(), e2.Finished()
	if len(f1) != len(f2) {
		t.Fatalf("finished %d vs %d flows", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].ID != f2[i].ID || f1[i].Finish != f2[i].Finish {
			t.Fatalf("completion %d differs: flow %d @%v vs flow %d @%v",
				i, f1[i].ID, f1[i].Finish, f2[i].ID, f2[i].Finish)
		}
	}
}

// TestIdleGapCostsNothing: events, not simulated time, bound the work —
// two flows a simulated hour apart cost four events.
func TestIdleGapCostsNothing(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 3600)
	e.Run(math.Inf(1))
	if len(e.Finished()) != 2 {
		t.Fatalf("finished %d flows", len(e.Finished()))
	}
	if e.Events() > 6 {
		t.Errorf("%d events for two isolated flows, want ≤ 6", e.Events())
	}
	if e.Allocs() != 0 {
		t.Errorf("%d allocs, want 0 (both flows independent)", e.Allocs())
	}
}

// buildDenseSchedule adds a dense random mixed workload — plain flows
// and finite groups over two disjoint link banks, with arrivals
// quantized so batches land on shared instants and sizes quantized so
// completions collide — to an engine, via one seeded stream. Returns
// the flows and groups for comparison.
func buildDenseSchedule(e *Engine, seed uint64) ([]*fluid.Flow, []*fluid.Group) {
	rng := sim.NewRNG(seed)
	// Two disjoint banks guarantee the link-sharing graph always has
	// at least two components for the component-local path to win on.
	banks := [2][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	var fs []*fluid.Flow
	var gs []*fluid.Group
	for i := 0; i < 150; i++ {
		bank := banks[rng.Intn(2)]
		// A 1-2 link path within the bank.
		path := []int{bank[rng.Intn(len(bank))]}
		if rng.Intn(2) == 0 {
			l := bank[rng.Intn(len(bank))]
			if l != path[0] {
				path = append(path, l)
			}
		}
		at := float64(rng.Intn(40)) * 100e-6
		sz := int64(rng.Intn(16)+1) * (64 << 10)
		fs = append(fs, e.AddFlow(path, core.ProportionalFair(), sz, at))
	}
	for i := 0; i < 8; i++ {
		bank := banks[rng.Intn(2)]
		paths := [][]int{{bank[rng.Intn(len(bank))]}, {bank[rng.Intn(len(bank))]}}
		at := float64(rng.Intn(40)) * 100e-6
		sz := int64(rng.Intn(8)+1) * (256 << 10)
		gs = append(gs, e.AddGroup(paths, core.ProportionalFair(), sz, at))
	}
	return fs, gs
}

// TestComponentLocalMatchesGlobal is the component-machinery property
// test: dense random schedules (simultaneous arrivals, colliding
// completions, finite groups) played twice through the engine — once
// component-local, once with Global forcing a full re-solve on every
// active-set change — must produce byte-identical completion times
// for every flow and group, and the same event count. WaterFill's
// progressive filling is separable across connected components, so
// any disagreement is a component-tracking bug, not float noise.
func TestComponentLocalMatchesGlobal(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		caps := []float64{10e9, 10e9, 25e9, 40e9, 10e9, 10e9, 25e9, 40e9}
		local := NewEngine(fluid.NewNetwork(caps), Config{})
		global := NewEngine(fluid.NewNetwork(caps), Config{Global: true})
		lf, lg := buildDenseSchedule(local, seed)
		gf, gg := buildDenseSchedule(global, seed)
		local.Run(math.Inf(1))
		global.Run(math.Inf(1))

		if local.Events() != global.Events() {
			t.Errorf("seed %d: events %d (local) vs %d (global)",
				seed, local.Events(), global.Events())
		}
		for i := range lf {
			if lf[i].Finish != gf[i].Finish {
				t.Fatalf("seed %d flow %d: finish %v (local) != %v (global)",
					seed, lf[i].ID, lf[i].Finish, gf[i].Finish)
			}
		}
		for i := range lg {
			if lg[i].Finish != gg[i].Finish {
				t.Fatalf("seed %d group %d: finish %v (local) != %v (global)",
					seed, lg[i].ID, lg[i].Finish, gg[i].Finish)
			}
		}
		ls, gs := local.Stats(), global.Stats()
		if ls.SolvedFlows >= gs.SolvedFlows {
			t.Errorf("seed %d: component-local solved %d flows, global %d — no win",
				seed, ls.SolvedFlows, gs.SolvedFlows)
		}
		if ls.FullSolveFlows == 0 || ls.MaxComponent == 0 {
			t.Errorf("seed %d: stats not populated: %+v", seed, ls)
		}
	}
}

// TestComponentStats: two link-disjoint flow pairs arriving at
// different instants are solved as two size-2 components, and the
// counterfactual full-solve work exceeds the component-local work.
func TestComponentStats(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9, 10e9})
	e := NewEngine(net, Config{})
	e.AddFlow([]int{0}, core.ProportionalFair(), 8<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 8<<20, 0)
	e.AddFlow([]int{1}, core.ProportionalFair(), 8<<20, 1e-3)
	e.AddFlow([]int{1}, core.ProportionalFair(), 8<<20, 1e-3)
	e.Run(2e-3) // both pairs admitted and solved, nothing finished yet
	s := e.Stats()
	if s.Allocs != 2 || s.SolvedFlows != 4 || s.MaxComponent != 2 {
		t.Errorf("stats = %+v, want 2 allocs × 2 flows, max component 2", s)
	}
	// First solve saw 2 active flows, the second 4: the global engine
	// would have paid 6.
	if s.FullSolveFlows != 6 {
		t.Errorf("FullSolveFlows = %d, want 6", s.FullSolveFlows)
	}
}

// TestStrandedNeighborElision: a departure that leaves exactly one
// flow in its component re-rates that flow with no allocator call —
// the size-one-component generalization of the arrival fast path.
func TestStrandedNeighborElision(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	a := e.AddFlow([]int{0}, core.ProportionalFair(), 10<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.Run(math.Inf(1))
	if got := e.Allocs(); got != 1 {
		t.Errorf("allocs = %d, want 1 (arrival couple only; the departure strands a size-1 component)", got)
	}
	// And the stranded flow's schedule reflects the reclaimed capacity:
	// 1 MB shared at 5G each, then A alone at 10G.
	wantB := float64(1<<20) * 8 / 5e9
	wantA := wantB + float64(10<<20-1<<20)*8/10e9
	if !almostEq(a.Finish, wantA, 1e-9) {
		t.Errorf("A finish = %v, want %v", a.Finish, wantA)
	}
}

// TestIndependenceElision: flows on disjoint links never invoke the
// allocator; an overlapping arrival forces the recomputation and the
// shared rates are exact.
func TestIndependenceElision(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9, 10e9})
	e := NewEngine(net, Config{})
	a := e.AddFlow([]int{0}, core.ProportionalFair(), 100<<20, 0)
	b := e.AddFlow([]int{1}, core.ProportionalFair(), 1<<20, 0)
	e.Run(1e-3)
	if e.Allocs() != 0 {
		t.Errorf("disjoint flows triggered %d allocs, want 0", e.Allocs())
	}
	if a.Rate != 10e9 || !b.Done() {
		t.Fatalf("fast-path rates wrong: a=%v b done=%v", a.Rate, b.Done())
	}
	// c overlaps a on link 0: the allocator must run and split it.
	c := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, e.Now())
	e.Step()
	if e.Allocs() == 0 {
		t.Error("overlapping arrival did not trigger an allocation")
	}
	if !almostEq(a.Rate, 5e9, 1e-9) || !almostEq(c.Rate, 5e9, 1e-9) {
		t.Errorf("shared rates %v/%v, want 5G each", a.Rate, c.Rate)
	}
}

// buildStaggered adds one flow per link with strictly increasing
// arrival times and sizes long enough that no completion lands among
// the arrivals: every instant is its own single-flow component.
func buildStaggered(e *Engine, links int) []*fluid.Flow {
	var fs []*fluid.Flow
	for i := 0; i < links; i++ {
		size := int64(1+i%4) << 20
		fs = append(fs, e.AddFlow([]int{i}, core.ProportionalFair(), size, float64(i)*10e-6))
	}
	return fs
}

// TestEventLoopEdgeCases drives the event loop through corner
// geometries. Every case must match the Global engine — which
// re-solves everything at every change — bitwise, Remaining included.
func TestEventLoopEdgeCases(t *testing.T) {
	type result struct {
		e  *Engine
		fs []*fluid.Flow
	}
	play := func(cfg Config, build func(*Engine) []*fluid.Flow, until float64) result {
		net := fluid.NewNetwork([]float64{10e9, 10e9, 10e9, 10e9})
		e := NewEngine(net, cfg)
		fs := build(e)
		e.Run(until)
		return result{e, fs}
	}
	compare := func(t *testing.T, l, g result) {
		t.Helper()
		for i := range l.fs {
			// Bit equality: unfinished flows carry NaN finishes, which
			// must match too (same flows unfinished in both runs).
			if math.Float64bits(l.fs[i].Finish) != math.Float64bits(g.fs[i].Finish) {
				t.Fatalf("flow %d: component-local finish %v != global %v",
					i, l.fs[i].Finish, g.fs[i].Finish)
			}
			if l.fs[i].Remaining != g.fs[i].Remaining {
				t.Fatalf("flow %d: component-local remaining %v != global %v",
					i, l.fs[i].Remaining, g.fs[i].Remaining)
			}
		}
	}
	global := Config{Global: true}

	t.Run("one-shared-link", func(t *testing.T) {
		// Every flow shares one link: each arrival and departure
		// re-solves the same growing and shrinking component.
		build := func(e *Engine) []*fluid.Flow {
			var fs []*fluid.Flow
			for i := 0; i < 10; i++ {
				fs = append(fs, e.AddFlow([]int{0}, core.ProportionalFair(),
					int64(1+i)<<18, float64(i)*20e-6))
			}
			return fs
		}
		compare(t, play(Config{}, build, math.Inf(1)), play(global, build, math.Inf(1)))
	})

	t.Run("deadline-on-instant", func(t *testing.T) {
		// The run deadline lands exactly on an event instant, then the
		// run resumes to completion: the deadline cut must drain both
		// engines to identical intermediate state (Remaining included)
		// and the resumed halves must still agree.
		build := func(e *Engine) []*fluid.Flow { return buildStaggered(e, 4) }
		cut := 20e-6 // exactly the third staggered arrival
		l := play(Config{}, build, cut)
		g := play(global, build, cut)
		compare(t, l, g)
		l.e.Run(math.Inf(1))
		g.e.Run(math.Inf(1))
		compare(t, l, g)
	})

	t.Run("sharing-created-by-arrival", func(t *testing.T) {
		// A completion on link 0 is followed by an arrival spanning
		// {0,1}, which couples the long flow on link 1 into a
		// component it never shared before.
		build := func(e *Engine) []*fluid.Flow {
			a := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<18, 0) // finishes ~210µs
			b := e.AddFlow([]int{1}, core.ProportionalFair(), 4<<20, 0) // long
			c := e.AddFlow([]int{0, 1}, core.ProportionalFair(), 1<<20, 230e-6)
			return []*fluid.Flow{a, b, c}
		}
		compare(t, play(Config{}, build, math.Inf(1)), play(global, build, math.Inf(1)))
	})

	t.Run("empty-engine", func(t *testing.T) {
		e := NewEngine(fluid.NewNetwork([]float64{10e9}), Config{})
		if e.Step() {
			t.Error("empty engine claims progress")
		}
		e.Run(math.Inf(1))
		if s := e.Stats(); s.Events != 0 || s.Batches != 0 {
			t.Errorf("empty engine recorded work: %+v", s)
		}
	})
}
