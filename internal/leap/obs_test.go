package leap

import (
	"math"
	"runtime"
	"testing"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// fullHooks returns one of every hook, freshly constructed.
func fullHooks() obs.Hooks {
	reg := obs.NewRegistry()
	return obs.Hooks{
		Profiler: obs.NewPhaseProfiler(),
		Tracer:   obs.NewTracer(),
		Progress: &obs.Progress{},
		Metrics:  obs.NewEngineMetrics(reg, "leap"),
		// Reservoir-only sampling: completed records recycle, so the
		// steady-state allocation bound below covers tracing too.
		FlowTrace: obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0}),
	}
}

// TestObsDoesNotChangeResults: attaching every observability hook must
// leave completions byte-identical — instrumentation reads engine
// state, never steers it — component-local and Global alike.
func TestObsDoesNotChangeResults(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		_, bf, bg := runDense(Config{}, seed)
		_, of, og := runDense(Config{Obs: fullHooks()}, seed)
		assertSameCompletions(t, "obs", seed, bf, bg, of, og)
		_, gf, gg := runDense(Config{Global: true}, seed)
		_, hf, hg := runDense(Config{Global: true, Obs: fullHooks()}, seed)
		assertSameCompletions(t, "obs-global", seed, gf, gg, hf, hg)
	}
}

// TestPhaseCoverage: the profiler's laps tile the event loop, so the
// per-phase sums must cover nearly all of the wall time spent inside
// Run — the property leapfct's phase columns rely on.
func TestPhaseCoverage(t *testing.T) {
	prof := obs.NewPhaseProfiler()
	ft := fluid.NewFatTree(4, 10e9)
	e := NewEngine(ft.Net, Config{Obs: obs.Hooks{Profiler: prof}})
	buildPodBursts(e, ft, false, 1)
	start := time.Now()
	e.Run(math.Inf(1))
	wall := time.Since(start).Nanoseconds()

	s := e.Stats()
	total := int64(0)
	for _, n := range s.PhaseNanos {
		total += n
	}
	if total <= 0 {
		t.Fatalf("no phase time recorded: %+v", s.PhaseNanos)
	}
	if total > wall {
		t.Errorf("phase sum %d exceeds Run wall %d", total, wall)
	}
	if float64(total) < 0.9*float64(wall) {
		t.Errorf("phase sum %d covers %.1f%% of Run wall %d, want >= 90%%",
			total, 100*float64(total)/float64(wall), wall)
	}
	for _, ph := range []obs.Phase{obs.PhaseFlood, obs.PhaseSolve, obs.PhaseResplice, obs.PhaseComplete} {
		if s.PhaseNanos[ph] <= 0 {
			t.Errorf("phase %s recorded no time: %v", obs.PhaseName(ph), s.PhaseNanos)
		}
	}
	// One complete-lap per processed event.
	if laps := prof.Laps(); laps[obs.PhaseComplete] != int64(s.Events) {
		t.Errorf("complete laps = %d, events = %d", laps[obs.PhaseComplete], s.Events)
	}
}

// TestSolveSpansMatchComponents: the tracer records exactly one solve
// span per component solved and one batch span per reallocation
// batch.
func TestSolveSpansMatchComponents(t *testing.T) {
	tr := obs.NewTracer()
	e, _, _ := runDense(Config{Obs: obs.Hooks{Tracer: tr}}, 2)
	s := e.Stats()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
	if got := tr.SpanCount("solve"); got != s.BatchComponents {
		t.Errorf("solve spans = %d, components = %d", got, s.BatchComponents)
	}
	if got := tr.SpanCount("batch"); got != s.Batches {
		t.Errorf("batch spans = %d, batches = %d", got, s.Batches)
	}
}

// TestObsMetricsMatchStats: the registry counters an engine feeds must
// agree with its own Stats.
func TestObsMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	prog := &obs.Progress{}
	e, _, _ := runDense(Config{Obs: obs.Hooks{
		Metrics:  obs.NewEngineMetrics(reg, "leap"),
		Progress: prog,
	}}, 3)
	s := e.Stats()
	snap := reg.Snapshot()
	if got := snap.Counters["leap.events"]; got != int64(s.Events) {
		t.Errorf("leap.events = %d, stats = %d", got, s.Events)
	}
	if got := snap.Counters["leap.allocs"]; got != int64(s.Allocs) {
		t.Errorf("leap.allocs = %d, stats = %d", got, s.Allocs)
	}
	if got := snap.Counters["leap.solved_flows"]; got != int64(s.SolvedFlows) {
		t.Errorf("leap.solved_flows = %d, stats = %d", got, s.SolvedFlows)
	}
	if got := snap.Histograms["leap.batch_components"].Count; got != int64(s.Batches) {
		t.Errorf("batch_components count = %d, batches = %d", got, s.Batches)
	}
	ps := prog.Snapshot()
	if ps.Events != int64(s.Events) || ps.Finished != int64(len(e.Finished())) {
		t.Errorf("progress %+v disagrees with stats %+v", ps, s)
	}
	if ps.ActiveFlows != 0 {
		t.Errorf("run-to-completion progress still shows %d active flows", ps.ActiveFlows)
	}
}

// TestAllocIters: allocators that count internal iterations surface
// the total through Stats, and identical runs count identically.
func TestAllocIters(t *testing.T) {
	mk := func() Config {
		return Config{Allocator: &fluid.XWI{IterPerEpoch: 24, Tol: 1e-3}}
	}
	se, _, _ := runDense(mk(), 1)
	ss := se.Stats()
	if ss.AllocIters < int64(ss.Allocs) {
		t.Fatalf("AllocIters = %d, want >= Allocs = %d", ss.AllocIters, ss.Allocs)
	}
	re, _, _ := runDense(mk(), 1)
	if rs := re.Stats(); rs.AllocIters != ss.AllocIters {
		t.Errorf("repeat run AllocIters = %d, first run = %d", rs.AllocIters, ss.AllocIters)
	}
	// WaterFill counts water-fill rounds.
	we, _, _ := runDense(Config{}, 1)
	if ws := we.Stats(); ws.AllocIters <= 0 {
		t.Errorf("WaterFill AllocIters = %d, want > 0", ws.AllocIters)
	}
}

// steadyStateAllocs plays the second half of a single-link coupled
// workload and returns heap allocations per event. The first half
// warms every amortized buffer (heaps, component tables, allocator
// workspaces), so the steady-state loop should allocate essentially
// nothing.
func steadyStateAllocs(t *testing.T, hooks obs.Hooks) float64 {
	t.Helper()
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{Obs: hooks})
	const n = 4000
	dt := 100e-6
	for i := 0; i < n; i++ {
		// Overlapping lifetimes on one link at ~0.5 load: every arrival
		// and departure is coupled (the reallocation path runs
		// steadily) while the active set stays bounded, so no
		// size-indexed buffer grows once warm.
		e.AddFlow([]int{0}, core.ProportionalFair(), 1<<16, float64(i)*dt)
	}
	e.Run(float64(n/2) * dt)
	before := e.Events()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.Run(math.Inf(1))
	runtime.ReadMemStats(&m1)

	events := e.Events() - before
	if events < n/2 {
		t.Fatalf("second half processed only %d events", events)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

// TestSteadyStateAllocations pins the zero-overhead-when-disabled
// contract: with no hooks the steady-state event loop performs
// essentially zero heap allocations per event, and attaching every
// hook (tracer included) adds at most amortized span-buffer growth —
// no per-event allocation either way.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is slow under -short")
	}
	if off := steadyStateAllocs(t, obs.Hooks{}); off > 0.1 {
		t.Errorf("obs disabled: %.3f allocs/event, want ~0", off)
	}
	// Everything except the flow tracer: the pre-tracing bound holds.
	noFT := fullHooks()
	noFT.FlowTrace = nil
	if on := steadyStateAllocs(t, noFT); on > 1.0 {
		t.Errorf("obs enabled, flowtrace off: %.3f allocs/event, want < 1", on)
	}
	if on := steadyStateAllocs(t, fullHooks()); on > 1.0 {
		t.Errorf("obs enabled: %.3f allocs/event, want < 1", on)
	}
}
