package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"numfabric/internal/harness"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// websearch-packet: the Figure 5a configuration (NUMFabric on the
// scaled leaf-spine, web-search arrivals at load 0.4, 400 flows)
// through harness.RunDynamic. It is the only workload that runs the
// packet engine and oracle.Solve: RunDynamic pairs every flow with its
// fluid-Oracle ideal FCT, which re-solves NUM at every arrival and
// departure. One play runs packetSchedules independent schedules,
// drawn from seeds packetSchedules×seed+j, and pools their flows: 400
// flows alone cannot support a 99th percentile, and the tails and cost
// of one schedule move by 15–25% between seeds.
const packetSchedules = 7

// packetConfigs are the harness configurations of a play.
func packetConfigs(seed uint64) []harness.DynamicConfig {
	cfgs := make([]harness.DynamicConfig, packetSchedules)
	for j := range cfgs {
		cfgs[j] = harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.4)
		cfgs[j].Seed = packetSchedules*seed + uint64(j)
	}
	return cfgs
}

// packetSchedule rebuilds the arrival schedule and ECMP spine picks
// RunDynamic draws for cfg (the same seeded stream, in the same order),
// so the benchmark can check RunDynamic's records against it and feed
// it to harness.FluidIdealFCTs.
func packetSchedule(cfg harness.DynamicConfig) (*harness.Topology, []workload.Arrival, []int) {
	topo := harness.NewFluidTopology(cfg.Topo)
	rng := sim.NewRNG(cfg.Seed)
	arrivals := workload.Poisson(workload.PoissonConfig{
		Hosts:    len(topo.Hosts),
		HostLink: cfg.Topo.HostLink,
		Load:     cfg.Load,
		CDF:      cfg.CDF,
		Duration: sim.Duration(sim.Forever / 2),
		MaxFlows: cfg.Flows,
	}, rng)
	spines := make([]int, len(arrivals))
	for i := range spines {
		spines[i] = rng.Intn(cfg.Topo.Spines)
	}
	return topo, arrivals, spines
}

// packetRun is one schedule's RunDynamic outcome.
type packetRun struct {
	arrivals []workload.Arrival
	res      harness.DynamicResult
	// index maps each record to its arrival.
	index []int
}

// packetPlay is one play's outcome.
type packetPlay struct {
	setup, run float64 // seconds
	runs       []packetRun
	digest     uint64
	// passed counts the finished flows that passed the checks.
	passed int
}

// rebuildSchedules is the packet workload's set-up: it rebuilds the
// arrivals of every schedule of a play.
func rebuildSchedules(cfgs []harness.DynamicConfig) []packetRun {
	runs := make([]packetRun, len(cfgs))
	for j, cfg := range cfgs {
		_, runs[j].arrivals, _ = packetSchedule(cfg)
	}
	return runs
}

// playPacket rebuilds the play's schedules (the set-up) and runs
// RunDynamic on each.
func playPacket(opt options) packetPlay {
	runtime.GC()
	t0 := time.Now()
	cfgs := packetConfigs(opt.seed)
	p := packetPlay{runs: rebuildSchedules(cfgs)}
	t1 := time.Now()
	for j, cfg := range cfgs {
		p.runs[j].res = harness.RunDynamic(cfg)
	}
	t2 := time.Now()
	p.setup, p.run = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	p.digest = packetDigest(p.runs)
	return p
}

// packetDigest hashes every record's FCT and each run's unfinished
// count.
func packetDigest(runs []packetRun) uint64 {
	h := fnv.New64a()
	for _, run := range runs {
		for _, rec := range run.res.Records {
			hashFloat(h, rec.FCT)
		}
		hashFloat(h, float64(run.res.Unfinished))
	}
	return h.Sum64()
}

// checkPacket matches every record to its arrival in the rebuilt
// schedule (records come in arrival order, unfinished flows skipped)
// and applies the output checks.
func checkPacket(p *packetPlay, first *packetPlay, r *report) {
runs:
	for j := range p.runs {
		run := &p.runs[j]
		r.attempted += len(run.arrivals)
		if n := len(run.res.Records) + run.res.Unfinished; n != len(run.arrivals) {
			r.fail(len(run.arrivals), "websearch-packet: %d flows played, %d rebuilt", n, len(run.arrivals))
			continue
		}
		run.index = run.index[:0]
		next := 0
		for _, rec := range run.res.Records {
			for next < len(run.arrivals) && (run.arrivals[next].At != rec.Start || run.arrivals[next].Size != rec.Size) {
				next++
			}
			if next == len(run.arrivals) {
				r.fail(len(run.arrivals), "websearch-packet: record (start %v, size %d) is not in the rebuilt schedule", rec.Start, rec.Size)
				run.index = nil
				continue runs
			}
			run.index = append(run.index, next)
			next++
		}
		// A flow the packet engine did not finish by its drain deadline
		// is a failed operation, though not a failed check.
		r.failed += run.res.Unfinished
		p.passed += len(run.res.Records) - checkNormFCT("websearch-packet", serializationNormFCTs(run.res), r)
	}
	if first != nil && p.digest != first.digest {
		r.fail(len(p.runs)*len(p.runs[0].arrivals), "websearch-packet: FCT digest %x differs from the first play's %x", p.digest, first.digest)
	}
}

// serializationNormFCTs normalizes each record's FCT by the time the
// sender needs to serialize the flow's wire bytes onto its host link,
// a strict lower bound on the FCT. NormalizedFCTs, the Figure 7 metric,
// is not one: its base RTT charges every hop a full-MTU
// store-and-forward delay, so short flows can finish under it.
func serializationNormFCTs(res harness.DynamicResult) []float64 {
	hostLink := harness.ScaledTopology().HostLink.Float()
	out := make([]float64, len(res.Records))
	for i, rec := range res.Records {
		pkts := (rec.Size + netsim.MSS - 1) / netsim.MSS
		out[i] = rec.FCT / (float64(rec.Size+pkts*netsim.HeaderSize) * 8 / hostLink)
	}
	return out
}

func runPacket(opt options, traced bool, r *report) {
	if traced {
		runPacketTraced(opt, r)
		return
	}
	setup := make([]float64, setupReps)
	for i := range setup {
		runtime.GC()
		t0 := time.Now()
		rebuildSchedules(packetConfigs(opt.seed))
		setup[i] = time.Since(t0).Seconds()
	}
	var plays []packetPlay
	timePlays(opt.seconds, func() {
		p := playPacket(opt)
		if len(plays) == 0 {
			checkPacket(&p, nil, r)
		} else {
			checkPacket(&p, &plays[0], r)
		}
		plays = append(plays, p)
	})
	var rate, wall []float64
	for _, p := range plays {
		finished := 0
		for _, run := range p.runs {
			finished += len(run.res.Records)
		}
		setup = append(setup, p.setup)
		rate = append(rate, float64(finished)/p.run)
		wall = append(wall, p.setup+p.run)
	}
	r.set("setup_s", stats.Median(setup))
	r.set("flows_per_s", stats.Median(rate))
	r.set("wall_s", stats.Median(wall))
	var norm, dev []float64
	flows := 0
	for _, run := range plays[0].runs {
		norm = append(norm, run.res.NormalizedFCTs(harness.ScaledTopology())...)
		for _, rec := range run.res.Records {
			dev = append(dev, math.Abs(rec.Deviation()))
		}
		flows += len(run.arrivals)
	}
	setFCTMetrics(norm, dev, plays[0].passed, flows, r)
}

// runPacketTraced makes one untraced play (the overhead baseline and
// the GC counts), then times the packet engine and the Oracle ideal
// apart: RunDynamic without its ideal, then harness.FluidIdealFCTs on
// the rebuilt schedule, whose ideals must equal the untraced play's
// bit for bit.
func runPacketTraced(opt options, r *report) {
	runtime.GC()
	g0 := readGC()
	base := playPacket(opt)
	runtime.GC()
	g1 := readGC()
	checkPacket(&base, nil, r)
	setGCMetrics(g0, g1, r)

	runtime.GC()
	log := &spanLog{}
	traced := packetPlay{}
	events, below := 0, 0
	for j, cfg := range packetConfigs(opt.seed) {
		sp := log.begin("schedule", -1)
		topo, arrivals, spines := packetSchedule(cfg)
		log.end(sp)
		sp = log.begin("run_dynamic", -1)
		skip := cfg
		skip.SkipFluidIdeal = true
		res := harness.RunDynamic(skip)
		log.end(sp)
		sp = log.begin("fluid_ideal", -1)
		ideal := harness.FluidIdealFCTs(cfg, topo, arrivals, spines)
		log.end(sp)
		traced.runs = append(traced.runs, packetRun{arrivals: arrivals, res: res})

		baseRun := base.runs[j]
		if len(baseRun.index) != len(baseRun.res.Records) {
			continue // the record check already failed
		}
		for k, rec := range baseRun.res.Records {
			if i := baseRun.index[k]; math.Float64bits(ideal[i]) != math.Float64bits(rec.IdealFCT) {
				r.fail(1, "websearch-packet: rebuilt ideal FCT of flow %d (seed %d) is %v, RunDynamic's is %v", i, cfg.Seed, ideal[i], rec.IdealFCT)
			}
		}
		// The ideal handles one arrival or one departure per solve.
		events += 2 * len(arrivals)
		below += countBelow(baseRun.res.NormalizedFCTs(cfg.Topo), 1)
	}
	traced.digest = packetDigest(traced.runs)
	checkPacket(&traced, &base, r)

	runNs, idealNs := float64(log.total("run_dynamic")), float64(log.total("fluid_ideal"))
	r.set("packet.run_s", runNs/1e9)
	r.set("packet.norm_fct_below_1", float64(below))
	r.set("oracle.ideal_s", idealNs/1e9)
	r.set("oracle.ideal_us_per_event", idealNs/1e3/float64(events))
	r.set("trace.overhead_frac", (runNs+idealNs)/(base.run*1e9)-1)
	if err := log.write(spanPath(opt, "websearch-packet")); err != nil {
		r.fail(0, "websearch-packet: %v", err)
	}
}
