package leap

import (
	"math"
	"runtime"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/sim"
)

// denseCaps is the dense property schedule's two-bank link vector.
func denseCaps() []float64 {
	return []float64{10e9, 10e9, 25e9, 40e9, 10e9, 10e9, 25e9, 40e9}
}

// runDense plays one dense random schedule to completion under cfg and
// returns the engine plus its flows and groups.
func runDense(cfg Config, seed uint64) (*Engine, []*fluid.Flow, []*fluid.Group) {
	e := NewEngine(fluid.NewNetwork(denseCaps()), cfg)
	fs, gs := buildDenseSchedule(e, seed)
	e.Run(math.Inf(1))
	return e, fs, gs
}

// assertSameCompletions fails unless the two runs finished every flow
// and group at bitwise-equal times.
func assertSameCompletions(t *testing.T, label string, seed uint64,
	af []*fluid.Flow, ag []*fluid.Group, bf []*fluid.Flow, bg []*fluid.Group) {
	t.Helper()
	for i := range af {
		if af[i].Finish != bf[i].Finish {
			t.Fatalf("%s seed %d flow %d: finish %v != %v",
				label, seed, af[i].ID, af[i].Finish, bf[i].Finish)
		}
	}
	for i := range ag {
		if ag[i].Finish != bg[i].Finish {
			t.Fatalf("%s seed %d group %d: finish %v != %v",
				label, seed, ag[i].ID, ag[i].Finish, bg[i].Finish)
		}
	}
}

// TestDeprecatedWorkerFieldsIgnored: the engine is serial, and the
// Workers and LinkShards fields it keeps for old callers change
// nothing — any worker count, with no partition, a locality partition
// or one too short for the network, produces byte-identical
// completions and the same event and work counts as Config{}.
func TestDeprecatedWorkerFieldsIgnored(t *testing.T) {
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	// An explicit locality partition (the two link banks) and one that
	// does not cover the links.
	shardSet := [][]int{nil, {0, 0, 0, 0, 1, 1, 1, 1}, {0}}
	for seed := uint64(1); seed <= 6; seed++ {
		serial, sf, sg := runDense(Config{}, seed)
		for _, w := range workerSet {
			for _, ls := range shardSet {
				e, ef, eg := runDense(Config{Workers: w, LinkShards: ls}, seed)
				assertSameCompletions(t, "deprecated-fields", seed, sf, sg, ef, eg)
				if es, ss := e.Stats(), serial.Stats(); es != ss {
					t.Errorf("seed %d workers %d shards %v: stats diverge: %+v vs %+v",
						seed, w, ls, es, ss)
				}
			}
		}
	}
}

// TestSweepThresholdEquivalence: the lazy-heap bulk-sweep threshold is
// a pure performance knob — an engine sweeping at every opportunity
// (threshold 1) and one that effectively never sweeps (a huge
// threshold) must produce identical completions on the dense schedule.
func TestSweepThresholdEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		_, af, ag := runDense(Config{SweepThreshold: 1}, seed)
		_, bf, bg := runDense(Config{SweepThreshold: 1 << 30}, seed)
		assertSameCompletions(t, "sweep-threshold", seed, af, ag, bf, bg)
	}
}

// TestBatchStats: synchronized arrivals on disjoint links form one
// batch of several disjoint components, and the engine's batch
// telemetry records it.
func TestBatchStats(t *testing.T) {
	caps := []float64{10e9, 10e9, 10e9, 10e9}
	e := NewEngine(fluid.NewNetwork(caps), Config{})
	// Four coupled 20-flow bundles at one instant, each on its own
	// link: one batch, four disjoint components.
	for l := 0; l < 4; l++ {
		for i := 0; i < 20; i++ {
			e.AddFlow([]int{l}, core.ProportionalFair(), int64(1+i)<<20, 1e-3)
		}
	}
	e.Run(math.Inf(1))
	s := e.Stats()
	if s.Batches == 0 || s.BatchComponents < s.Batches {
		t.Fatalf("batch telemetry not populated: %+v", s)
	}
	if s.MaxBatchComponents != 4 {
		t.Errorf("MaxBatchComponents = %d, want 4", s.MaxBatchComponents)
	}
	// The arrival batch's four components each solve once, and so do
	// the synchronized completion batches that follow (the four links
	// carry identical size ladders, so completions collide too).
	if s.Allocs < 4 {
		t.Errorf("Allocs = %d, want ≥ 4 (the wide arrival batch alone has 4)", s.Allocs)
	}
	if s.ParallelSolves != 0 || s.GateSerial != 0 || s.GateParallel != 0 {
		t.Errorf("serial engine reported parallel work: %+v", s)
	}
}

// buildPodBursts adds a synchronized pod-local burst schedule to an
// engine on a k=4 fat-tree: at each grid instant every pod receives a
// fan-in burst among its own hosts (plus a finite intra-pod group per
// instant), so every batch floods several pod-local components and
// equal-size bursts complete in shared instants. withInterPod mixes in
// cross-pod flows, whose paths couple two pods' components.
func buildPodBursts(e *Engine, ft *fluid.FatTree, withInterPod bool, seed uint64) []*fluid.Flow {
	rng := sim.NewRNG(seed)
	perPod := ft.Hosts() / ft.K
	var fs []*fluid.Flow
	for q := 0; q < 12; q++ {
		at := float64(q) * 500e-6
		for p := 0; p < ft.K; p++ {
			base := p * perPod
			dst := base + rng.Intn(perPod)
			size := int64(1+rng.Intn(4)) * (256 << 10)
			for i := 0; i < 8; i++ {
				src := base + rng.Intn(perPod-1)
				if src >= dst {
					src++
				}
				path := ft.Route(src, dst, rng.Intn(4))
				fs = append(fs, e.AddFlow(path, core.ProportionalFair(), size, at))
			}
			if q%3 == 0 {
				a, b := base, base+1
				e.AddGroup([][]int{ft.Route(a, b, 0), ft.Route(a, b, 1)},
					core.ProportionalFair(), 512<<10, at)
			}
		}
		if withInterPod {
			src := rng.Intn(perPod)
			dst := perPod + rng.Intn(perPod)
			path := ft.Route(src, dst, rng.Intn(4))
			fs = append(fs, e.AddFlow(path, core.ProportionalFair(), 1<<20, at))
		}
	}
	return fs
}

// TestPodBurstsMatchGlobal: the pod-burst workload — wide batches of
// pod-local components, finite groups, colliding completions — played
// component-local and with Global full re-solves finishes every flow
// at bitwise-equal times with the same event count, with and without
// inter-pod flows coupling the pods.
func TestPodBurstsMatchGlobal(t *testing.T) {
	for _, interPod := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			run := func(global bool) (*Engine, []*fluid.Flow) {
				ft := fluid.NewFatTree(4, 10e9)
				e := NewEngine(ft.Net, Config{Global: global})
				fs := buildPodBursts(e, ft, interPod, seed)
				e.Run(math.Inf(1))
				return e, fs
			}
			le, lf := run(false)
			ge, gf := run(true)
			for i := range lf {
				if lf[i].Finish != gf[i].Finish {
					t.Fatalf("interPod=%v seed %d flow %d: global finish %v != component-local %v",
						interPod, seed, lf[i].ID, gf[i].Finish, lf[i].Finish)
				}
			}
			if le.Events() != ge.Events() {
				t.Errorf("interPod=%v seed %d: events %d (local) vs %d (global)",
					interPod, seed, le.Events(), ge.Events())
			}
			if ls := le.Stats(); ls.MaxBatchComponents < 2 {
				t.Errorf("interPod=%v seed %d: no batch spanned several components: %+v",
					interPod, seed, ls)
			}
		}
	}
}
