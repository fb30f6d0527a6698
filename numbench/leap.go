package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/obs"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

const (
	fatTreeK = 8
	linkRate = 10e9
)

// leapWorkload is a batch played through the leap engine with the
// configuration the CLI ships: one worker per core, no PDES window,
// the fat-tree's pod-local link shards.
type leapWorkload struct {
	name string
	// alloc is the allocator's per-layer metric prefix.
	alloc string
	// schedules is how many independent schedules one play runs, each
	// in its own engine, drawn from seeds schedules×seed+j.
	schedules int
	// build draws one schedule's topology, arrivals, ECMP paths and
	// faults.
	build     func(seed uint64) leapInput
	allocator func() fluid.Allocator
	utility   func(size int64) core.Utility
	// gapEvery > 0 re-solves every gapEvery-th allocator solve with
	// oracle.Solve in the traced play.
	gapEvery int
	// overloadDefect marks an allocator whose solves are known to
	// overload links (README.md, "Known defects"): the traced play
	// reports its overloads instead of failing on them.
	overloadDefect bool
}

type leapInput struct {
	ft       *fluid.FatTree
	arrivals []workload.Arrival
	paths    [][]int
	faults   []workload.Fault
}

// coflowsWaterFill: synchronized fan-in bursts under max-min
// water-filling. Wide same-instant batches keep the event loop (flood,
// pool gate, resplice, completion gather) busy while the max-min
// kernel is a minority of step time, so event-loop and multi-core
// changes show here and xWI or Oracle changes should not.
var coflowsWaterFill = leapWorkload{
	name:      "coflows-waterfill",
	alloc:     "waterfill",
	schedules: 1,
	build: func(seed uint64) leapInput {
		const flows, load, senders, bursts = 200_000, 0.1, 15, 24
		ft := fluid.NewFatTree(fatTreeK, linkRate)
		arrivals, paths := harness.FatTreeCoflows(ft, load, flows, senders, bursts, sim.NewRNG(seed))
		return leapInput{ft: ft, arrivals: arrivals, paths: paths}
	},
	allocator: func() fluid.Allocator { return fluid.NewWaterFill() },
	utility:   func(int64) core.Utility { return core.ProportionalFair() },
}

// websearchXWIFaults: unsynchronized web-search arrivals under the
// paper's allocator (xWI, FCT-minimizing utilities), with Poisson link
// failures changing capacity alongside admissions. xWI dominates step
// time here. The run time of one 40k-flow schedule moves by about a
// tenth from seed to seed, so a play runs four independent schedules.
// Shorter schedules do not help: their cost moves as much per second
// of work, and their tail FCTs move by half (xWI's cold start weighs
// more in them).
var websearchXWIFaults = leapWorkload{
	name:      "websearch-xwi-faults",
	alloc:     "xwi",
	schedules: 4,
	build: func(seed uint64) leapInput {
		const flows, load, faultRate = 40_000, 0.15, 50
		ft := fluid.NewFatTree(fatTreeK, linkRate)
		arrivals, paths := harness.FatTreeWebSearch(ft, load, flows, sim.NewRNG(seed))
		faults := workload.FaultSchedule(workload.FaultConfig{
			Links:        ft.Net.Links(),
			Rate:         faultRate,
			MeanDowntime: 5 * sim.Millisecond,
			Horizon:      sim.Duration(arrivals[len(arrivals)-1].At),
		}, sim.NewRNG(seed+0x9e3779b9))
		return leapInput{ft: ft, arrivals: arrivals, paths: paths, faults: faults}
	},
	allocator: func() fluid.Allocator {
		return harness.LeapAllocatorFor(harness.DefaultConfig(harness.NUMFabric, harness.ScaledTopology()))
	},
	utility:        func(size int64) core.Utility { return core.FCTMin(size, 0.125) },
	gapEvery:       1600,
	overloadDefect: true,
}

// leapPlay is one play's outcome, summed over its schedules: the
// timings and the summary of the simulated results the checks and
// metrics need.
type leapPlay struct {
	setup, run float64 // seconds
	flows      int
	finished   int
	passed     int // finished flows that passed the checks
	faults     int // fault events scheduled
	digest     uint64
	norm       []float64 // normalized FCT of every finished flow
	stats      leap.Stats
	// mallocs and allocBytes cover the Run call of an untraced play,
	// the GC readings the whole play.
	mallocs, allocBytes uint64
	gc0, gc1            gcSample
}

// setup builds the workload's engine with every flow admitted, timing
// the layers into log when it is non-nil.
func (w *leapWorkload) setup(seed uint64, alloc fluid.Allocator, hooks obs.Hooks, log *spanLog) (*leap.Engine, []*fluid.Flow, int) {
	sp := log.begin("schedule", -1)
	in := w.build(seed)
	log.end(sp)
	sp = log.begin("new_engine", -1)
	eng := leap.NewEngine(in.ft.Net, leap.Config{
		Allocator:  alloc,
		Workers:    harness.LeapWorkers(0),
		LinkShards: in.ft.LinkShards(),
		Obs:        hooks,
	})
	harness.ScheduleFaults(eng, in.faults)
	log.end(sp)
	sp = log.begin("add_flows", -1)
	flows := make([]*fluid.Flow, len(in.arrivals))
	for i, a := range in.arrivals {
		flows[i] = eng.AddFlow(in.paths[i], w.utility(a.Size), a.Size, a.At.Seconds())
	}
	log.end(sp)
	return eng, flows, len(in.faults)
}

// seeds returns the schedule seeds of a play.
func (w *leapWorkload) seeds(seed uint64) []uint64 {
	out := make([]uint64, w.schedules)
	for j := range out {
		out[j] = uint64(w.schedules)*seed + uint64(j)
	}
	return out
}

// playUntraced sets up and runs one untraced play. The GC readings
// span the whole play, each taken after a forced collection so the
// runtime's CPU accounting is up to date.
func (w *leapWorkload) playUntraced(opt options) leapPlay {
	runtime.GC()
	p := leapPlay{gc0: readGC()}
	h := fnv.New64a()
	for _, seed := range w.seeds(opt.seed) {
		t0 := time.Now()
		eng, flows, faults := w.setup(seed, w.allocator(), obs.Hooks{}, nil)
		t1 := time.Now()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t2 := time.Now()
		eng.Run(math.Inf(1))
		t3 := time.Now()
		runtime.ReadMemStats(&m1)
		p.setup += t1.Sub(t0).Seconds()
		p.run += t3.Sub(t2).Seconds()
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.add(eng, flows, faults, h)
	}
	p.digest = h.Sum64()
	runtime.GC()
	p.gc1 = readGC()
	return p
}

// add folds one finished schedule into the play: every flow's finish
// time into the digest h (in admission order), each finished flow's
// FCT normalized to its line-rate FCT, and the engine's counters.
func (p *leapPlay) add(eng *leap.Engine, flows []*fluid.Flow, faults int, h hash.Hash64) {
	for _, f := range flows {
		hashFloat(h, f.Finish)
		if f.Done() {
			p.finished++
			p.norm = append(p.norm, f.FCT()*linkRate/(float64(f.SizeBytes)*8))
		}
	}
	p.flows += len(flows)
	p.faults += faults
	s, t := eng.Stats(), &p.stats
	t.Events += s.Events
	t.Allocs += s.Allocs
	t.Elided += s.Elided
	t.SolvedFlows += s.SolvedFlows
	t.FullSolveFlows += s.FullSolveFlows
	t.Batches += s.Batches
	t.BatchComponents += s.BatchComponents
	t.ParallelSolves += s.ParallelSolves
	t.GateSerial += s.GateSerial
	t.GateParallel += s.GateParallel
	t.Faults += s.Faults
	t.Stranded += s.Stranded
	t.Resumed += s.Resumed
}

// check applies the output checks every play of a workload must pass
// and records how many finished flows passed them.
func (w *leapWorkload) check(p *leapPlay, first *leapPlay, r *report) {
	r.attempted += p.flows
	if n := p.flows - p.finished; n > 0 {
		r.fail(n, "%s: %d of %d flows unfinished", w.name, n, p.flows)
	}
	p.passed = p.finished - checkNormFCT(w.name, p.norm, r)
	if first != nil && p.digest != first.digest {
		r.fail(p.flows, "%s: finish-time digest %x differs from the first play's %x", w.name, p.digest, first.digest)
	}
	if p.faults > 0 {
		if s := p.stats; s.Stranded != s.Resumed || s.Stranded == 0 {
			r.fail(1, "%s: stranded %d, resumed %d; want equal and nonzero", w.name, s.Stranded, s.Resumed)
		}
	}
}

func (w *leapWorkload) run(opt options, traced bool, r *report) {
	if traced {
		w.runTraced(opt, r)
		return
	}
	setup := w.timeSetups(opt)
	plays := w.untracedPlays(opt, opt.seconds, r)
	var rate, wall []float64
	for _, p := range plays {
		setup = append(setup, p.setup)
		rate = append(rate, float64(p.finished)/p.run)
		wall = append(wall, p.setup+p.run)
	}
	r.set("setup_s", stats.Median(setup))
	r.set("flows_per_s", stats.Median(rate))
	r.set("wall_s", stats.Median(wall))
	setLeapFCTMetrics(plays[0], r)
}

// untracedPlays makes and checks untraced plays for the given seconds
// (see timePlays). Only the first play keeps its normalized FCTs: the
// digest check pins every other play's to them.
func (w *leapWorkload) untracedPlays(opt options, seconds float64, r *report) []leapPlay {
	var plays []leapPlay
	timePlays(seconds, func() {
		p := w.playUntraced(opt)
		if len(plays) == 0 {
			w.check(&p, nil, r)
		} else {
			w.check(&p, &plays[0], r)
			p.norm = nil
		}
		plays = append(plays, p)
	})
	return plays
}

// timeSetups times setupReps set-ups of every schedule of a play,
// discarding the engines.
func (w *leapWorkload) timeSetups(opt options) []float64 {
	out := make([]float64, setupReps)
	for i := range out {
		runtime.GC()
		t0 := time.Now()
		for _, seed := range w.seeds(opt.seed) {
			w.setup(seed, w.allocator(), obs.Hooks{}, nil)
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// setLeapFCTMetrics reports a leap play's simulated results. The
// fat-tree workloads have no Oracle run to compare against, so the
// rate deviation is taken from each flow's ideal isolated rate, its
// line rate: |rate − line rate| / line rate = 1 − 1/normalized FCT.
func setLeapFCTMetrics(p leapPlay, r *report) {
	dev := make([]float64, len(p.norm))
	for i, v := range p.norm {
		dev[i] = 1 - 1/v
	}
	setFCTMetrics(p.norm, dev, p.passed, p.flows, r)
}

// runTraced makes untraced plays for half the time (the baseline for
// the tracing overhead, and the allocation and GC counts), then one
// traced play that times each layer from outside: the setup calls,
// every Engine.Step, and every allocator solve through timedAllocator.
func (w *leapWorkload) runTraced(opt options, r *report) {
	base := w.untracedPlays(opt, opt.seconds/2, r)
	last := base[len(base)-1]
	events := math.Max(float64(last.stats.Events), 1)
	r.set("leap.allocs_per_event", float64(last.mallocs)/events)
	r.set("leap.bytes_per_event", float64(last.allocBytes)/events)
	setGCMetrics(last.gc0, last.gc1, r)
	var untracedRate []float64
	for _, p := range base {
		untracedRate = append(untracedRate, float64(p.finished)/p.run)
	}

	runtime.GC()
	log := &spanLog{}
	prof := obs.NewPhaseProfiler()
	var (
		p        leapPlay
		tas      []*timedAllocator
		steps    []int32
		baseCaps []float64
		runNs    float64
	)
	h := fnv.New64a()
	for _, seed := range w.seeds(opt.seed) {
		ta, err := newTimedAllocator(w.allocator(), w.gapEvery)
		if err != nil {
			r.fail(0, "%s: %v", w.name, err)
			return
		}
		tas = append(tas, ta)
		eng, flows, faults := w.setup(seed, ta, obs.Hooks{Profiler: prof}, log)
		// Every schedule runs on the same fault-free fat-tree.
		baseCaps = append(baseCaps[:0], eng.Net().Capacity...)
		prof.Arm()
		runStart := obs.Now()
		for {
			sp := log.begin("step", -1)
			more := eng.Step()
			log.end(sp)
			steps = append(steps, sp)
			if !more {
				break
			}
		}
		runNs += float64(obs.Now() - runStart)
		p.add(eng, flows, faults, h)
	}
	p.digest = h.Sum64()
	w.check(&p, &base[0], r)

	r.set("harness.schedule_s", float64(log.total("schedule"))/1e9)
	r.set("leap.new_engine_s", float64(log.total("new_engine"))/1e9)
	r.set("leap.add_flow_ns", float64(log.total("add_flows"))/float64(p.flows))

	solveName := w.alloc + ".solve"
	var (
		samples     []sample
		iters       float64
		solvedFlows float64
		overloads   int
		maxOverload float64
	)
	for _, ta := range tas {
		iters += float64(ta.SolveIters())
		for _, v := range ta.views {
			log.adopt(solveName, v.solves, steps)
			for _, s := range v.solves {
				solvedFlows += float64(s.flows)
			}
			samples = append(samples, v.samples...)
			overloads += v.overloads
			maxOverload = max(maxOverload, v.maxOverload)
		}
	}
	if overloads > 0 && w.overloadDefect {
		fmt.Fprintf(os.Stderr, "numbench: warning: %s: %d allocator solves overloaded a link, by up to %.3g relative (known defect)\n",
			w.name, overloads, maxOverload)
	} else if overloads > 0 {
		r.fail(overloads, "%s: %d allocator solves overloaded a link, by up to %.3g relative", w.name, overloads, maxOverload)
	}
	var stepDur, solveDur []float64
	for _, s := range log.spans {
		switch s.name {
		case "step":
			stepDur = append(stepDur, float64(s.dur()))
		case solveName:
			solveDur = append(solveDur, float64(s.dur()))
		}
	}
	stepNs, solveNs := float64(log.total("step")), float64(log.total(solveName))
	r.set("leap.steps", float64(len(steps)))
	r.set("leap.step_s", stepNs/1e9)
	r.set("leap.step_self_s", float64(log.selfTime("step"))/1e9)
	r.set("leap.step_ns_p50", stats.Median(stepDur))
	r.set("leap.step_ns_p99", stats.Percentile(stepDur, 0.99))
	ph := prof.Nanos()
	for _, phase := range []obs.Phase{obs.PhaseAdmit, obs.PhaseFlood, obs.PhaseSolve, obs.PhaseResplice, obs.PhaseComplete} {
		r.set("leap.phase."+obs.PhaseName(phase)+"_s", float64(ph[phase])/1e9)
	}
	s := p.stats
	r.set("leap.events", float64(s.Events))
	r.set("leap.solves", float64(s.Allocs))
	r.set("leap.elided", float64(s.Elided))
	r.set("leap.alloc_work_ratio", float64(s.FullSolveFlows)/math.Max(float64(s.SolvedFlows), 1))
	r.set("leap.batch_width", float64(s.BatchComponents)/math.Max(float64(s.Batches), 1))
	r.set("leap.parallel_solves", float64(s.ParallelSolves))
	r.set("leap.gate_serial", float64(s.GateSerial))
	r.set("leap.gate_parallel", float64(s.GateParallel))
	r.set("leap.faults", float64(s.Faults))
	r.set("leap.stranded", float64(s.Stranded))
	r.set("leap.resumed", float64(s.Resumed))

	prefix := "fluid." + w.alloc + "."
	n := float64(len(solveDur))
	r.set(prefix+"solves", n)
	r.set(prefix+"solve_s", solveNs/1e9)
	r.set(prefix+"solve_ns_p50", stats.Median(solveDur))
	r.set(prefix+"solve_ns_p99", stats.Percentile(solveDur, 0.99))
	r.set(prefix+"flows_per_solve", solvedFlows/math.Max(n, 1))
	r.set(prefix+"iters_per_solve", iters/math.Max(n, 1))
	r.set(prefix+"ns_per_iter", solveNs/math.Max(iters, 1))
	r.set(prefix+"solve_share", solveNs/math.Max(stepNs, 1))
	r.set(prefix+"overload_solves", float64(overloads))
	r.set(prefix+"overload_max_rel", maxOverload)
	r.set("trace.overhead_frac", stats.Median(untracedRate)/(float64(p.finished)/runNs*1e9)-1)

	if w.gapEvery > 0 {
		sp := log.begin("shadow_oracle", -1)
		gaps, unconverged := shadowGaps(baseCaps, samples)
		log.end(sp)
		r.set(prefix+"gap_samples", float64(len(gaps)))
		r.set(prefix+"gap_unconverged", float64(unconverged))
		if len(gaps) > 0 {
			r.set(prefix+"opt_gap_p50", stats.Median(gaps))
			r.set(prefix+"opt_gap_p99", stats.Percentile(gaps, 0.99))
		}
	}
	if err := log.write(spanPath(opt, w.name)); err != nil {
		r.fail(0, "%s: %v", w.name, err)
	}
}

// shadowGaps re-solves each sampled allocator solve with oracle.Solve
// (the options harness.FluidIdealFCTs uses), on a problem built from
// the same flows and the links' fault-free capacities. It returns the
// relative rate error Σ|rate − Oracle rate| / Σ Oracle rate of each
// sample the Oracle converged on, and how many it did not converge
// on. Samples taken while one of their links was down are skipped:
// the fault-free problem does not describe them.
func shadowGaps(caps []float64, samples []sample) (gaps []float64, unconverged int) {
	for _, s := range samples {
		if s.dead {
			continue
		}
		p := core.NewProblem(caps)
		for _, f := range s.flows {
			p.AddFlow(f.Links, f.U)
		}
		opt := oracle.Solve(p, oracle.SolveOptions{MaxIter: 1500, Tol: 1e-7})
		if !opt.Converged {
			unconverged++
			continue
		}
		var diff, sum float64
		for i, x := range opt.Rates {
			diff += math.Abs(s.rates[i] - x)
			sum += x
		}
		if sum > 0 {
			gaps = append(gaps, diff/sum)
		}
	}
	return gaps, unconverged
}
