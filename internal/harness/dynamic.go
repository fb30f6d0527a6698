package harness

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/netsim"
	"numfabric/internal/obs"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// DynamicConfig parameterizes the §6.1 dynamic-workload experiment:
// Poisson flow arrivals from a measured size distribution, with each
// flow's average rate (size/FCT) compared against the rate it would
// have had under an instantaneous Oracle.
type DynamicConfig struct {
	Topo   TopologyConfig
	Scheme SchemeConfig

	CDF  *workload.SizeCDF
	Load float64
	// Flows caps the arrival count.
	Flows int
	// Alpha is the α-fair objective (paper: proportional fairness).
	Alpha float64
	// UtilityFor, if set, overrides the per-flow utility (e.g.
	// core.FCTMin for the §6.3 FCT-minimization experiment). The
	// default is the α-fair utility.
	UtilityFor func(size int64) core.Utility
	// Drain bounds how long the simulation runs past the last arrival
	// for stragglers to finish.
	Drain sim.Duration
	// SkipFluidIdeal disables the fluid-Oracle ideal-FCT computation
	// (IdealFCT fields become NaN); Figure 7 normalizes by the
	// line-rate FCT instead and does not need it.
	SkipFluidIdeal bool
	// FluidEpoch overrides the fluid epoch engine's allocation period
	// (default: the scheme's control-loop cadence, FluidEpochFor).
	// Accuracy studies and the leap-vs-epoch comparisons shrink it so
	// epoch quantization stops dominating short-flow FCTs; the leap
	// engine ignores it (event-driven time needs no epoch).
	FluidEpoch sim.Duration
	// Obs attaches observability hooks (phase profiler, tracer, live
	// progress, metrics) to the flow-level engines; the packet engine
	// ignores it. Nil hooks cost nothing and never change results.
	Obs obs.Hooks
	// Faults schedules link failure/recovery events (leap engine only:
	// RunDynamicLeap feeds them through leap.Engine.FailLink/
	// RecoverLink before the run; the packet and fluid epoch engines
	// ignore them). Link ids index the topology's directed links, as
	// flow paths do.
	Faults []workload.Fault
	Seed   uint64
}

// DefaultDynamic returns a scaled dynamic-workload config.
func DefaultDynamic(s Scheme, cdf *workload.SizeCDF, load float64) DynamicConfig {
	topo := ScaledTopology()
	return DynamicConfig{
		Topo:   topo,
		Scheme: DefaultConfig(s, topo),
		CDF:    cdf,
		Load:   load,
		Flows:  400,
		Alpha:  1,
		Drain:  200 * sim.Millisecond,
		Seed:   1,
	}
}

// FlowRecord is the outcome of one finite flow.
type FlowRecord struct {
	Size     int64
	Start    sim.Time
	FCT      float64 // seconds; NaN if unfinished
	IdealFCT float64 // seconds, from the fluid Oracle
}

// Rate returns the flow's average rate size/FCT in bits/second.
func (r FlowRecord) Rate() float64 { return float64(r.Size) * 8 / r.FCT }

// IdealRate returns the Oracle's average rate for the flow.
func (r FlowRecord) IdealRate() float64 { return float64(r.Size) * 8 / r.IdealFCT }

// Deviation returns the paper's normalized rate deviation
// (rateWithX − idealRate)/idealRate.
func (r FlowRecord) Deviation() float64 {
	return (r.Rate() - r.IdealRate()) / r.IdealRate()
}

// DynamicResult aggregates a dynamic-workload run.
type DynamicResult struct {
	Records []FlowRecord
	// BDP is the network bandwidth-delay product in bytes (used for
	// the size bins of Figure 5).
	BDP float64
	// Unfinished counts flows that did not complete before the drain
	// deadline (excluded from Records).
	Unfinished int
	// LeapStats is the leap engine's work telemetry (events,
	// allocations, component sizes, batch widths) when the run used
	// the leap engine; nil for the packet and fluid epoch engines.
	LeapStats *leap.Stats
	// FluidStats is the epoch engine's work telemetry (epochs,
	// allocator solves, stationary-skip counts) when the run used the
	// fluid engine; nil for the packet and leap engines.
	FluidStats *fluid.Stats
}

// Fig5Bins are the flow-size bins of Figure 5, in BDP units.
var Fig5Bins = []struct {
	Label  string
	Lo, Hi float64 // BDPs
}{
	{"(0-5)", 0, 5},
	{"(5-10)", 5, 10},
	{"(10-100)", 10, 100},
	{"(100-1K)", 100, 1000},
	{"(1K-10K)", 1000, 10000},
}

// DeviationByBin returns a stats summary of the normalized rate
// deviation per Figure 5 size bin.
func (r DynamicResult) DeviationByBin() map[string]stats.Summary {
	byBin := make(map[string][]float64)
	for _, rec := range r.Records {
		bdps := float64(rec.Size) / r.BDP
		for _, b := range Fig5Bins {
			if bdps >= b.Lo && bdps < b.Hi {
				byBin[b.Label] = append(byBin[b.Label], rec.Deviation())
				break
			}
		}
	}
	out := make(map[string]stats.Summary, len(byBin))
	for k, v := range byBin {
		out[k] = stats.Summarize(v)
	}
	return out
}

// NormalizedFCTs returns FCT/idealLineRateFCT for every flow, the
// Figure 7 metric ("normalized to the lowest possible FCT for each
// flow given its size").
func (r DynamicResult) NormalizedFCTs(topo TopologyConfig) []float64 {
	out := make([]float64, 0, len(r.Records))
	for _, rec := range r.Records {
		out = append(out, rec.FCT/lineRateFCT(rec.Size, topo))
	}
	return out
}

// lineRateFCT is the lowest possible FCT for a flow: wire bytes at the
// host line rate plus the base RTT.
func lineRateFCT(size int64, topo TopologyConfig) float64 {
	pkts := (size + netsim.MSS - 1) / netsim.MSS
	wire := size + pkts*netsim.HeaderSize
	return float64(wire)*8/topo.HostLink.Float() + topo.BaseRTT().Seconds()
}

// dynamicWorkload draws cfg's seeded arrival schedule, ECMP spine
// picks, and per-flow utility mapping — the shared randomness of every
// engine's dynamic driver, so the packet, fluid, and leap engines play
// the byte-identical workload for a given seed.
func dynamicWorkload(cfg DynamicConfig, topo *Topology) ([]workload.Arrival, []int, func(int64) core.Utility) {
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
	utilityFor := cfg.UtilityFor
	if utilityFor == nil {
		utilityFor = func(int64) core.Utility { return core.NewAlphaFair(cfg.Alpha) }
	}
	return arrivals, spines, utilityFor
}

// dynamicIdeals computes (or, with SkipFluidIdeal, stubs out) the
// per-arrival Oracle ideal FCTs.
func dynamicIdeals(cfg DynamicConfig, topo *Topology, arrivals []workload.Arrival, spines []int) []float64 {
	if !cfg.SkipFluidIdeal {
		return FluidIdealFCTs(cfg, topo, arrivals, spines)
	}
	ideal := make([]float64, len(arrivals))
	for i := range ideal {
		ideal[i] = math.NaN()
	}
	return ideal
}

// RunDynamic plays a Poisson workload through the packet simulator
// under cfg.Scheme and pairs every finished flow with its fluid-Oracle
// ideal FCT.
func RunDynamic(cfg DynamicConfig) DynamicResult {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	net.QueueFactory = cfg.Scheme.QueueFactory()
	topo := NewTopology(net, cfg.Topo)
	arrivals, spines, utilityFor := dynamicWorkload(cfg, topo)

	expectedShare := cfg.Topo.HostLink.Float() / 3
	cfg.Scheme.SetUtilityHint(utilityFor(int64(expectedShare/8)), expectedShare)
	cfg.Scheme.RCP.Alpha = cfg.Alpha
	cfg.Scheme.AttachAgents(net)

	flows := make([]*netsim.Flow, len(arrivals))
	var lastArrival sim.Time
	for i, a := range arrivals {
		i, a := i, a
		lastArrival = a.At
		eng.Schedule(a.At, func() {
			f := topo.NewFlow(a.Src, a.Dst, spines[i], a.Size)
			flows[i] = f
			cfg.Scheme.AttachSender(net, f, utilityFor(a.Size))
			f.Start()
		})
	}
	eng.Run(lastArrival.Add(cfg.Drain))

	ideal := dynamicIdeals(cfg, topo, arrivals, spines)
	res := DynamicResult{BDP: cfg.Topo.HostLink.Float() / 8 * cfg.Topo.BaseRTT().Seconds()}
	for i, f := range flows {
		if f == nil || !f.Done {
			res.Unfinished++
			continue
		}
		res.Records = append(res.Records, FlowRecord{
			Size:     f.Size,
			Start:    f.StartTime,
			FCT:      f.FCT().Seconds(),
			IdealFCT: ideal[i],
		})
	}
	return res
}

// FluidIdealFCTs computes, for each arrival, the FCT it would have if
// an Oracle "assigns all flows their optimal NUM rates
// instantaneously" (§6.1): an event-driven fluid simulation that
// re-solves the NUM problem at every arrival and departure and drains
// flows at the optimal rates in between.
func FluidIdealFCTs(cfg DynamicConfig, topo *Topology, arrivals []workload.Arrival, spines []int) []float64 {
	caps := topo.Net.Capacities()
	type fluidFlow struct {
		idx       int
		links     []int
		size      int64
		remaining float64 // payload bytes left
	}
	out := make([]float64, len(arrivals))
	for i := range out {
		out[i] = math.NaN()
	}
	var active []*fluidFlow
	var prices []float64
	now := 0.0
	next := 0

	utilityFor := cfg.UtilityFor
	if utilityFor == nil {
		utilityFor = func(int64) core.Utility { return core.NewAlphaFair(cfg.Alpha) }
	}
	solve := func() []float64 {
		p := core.NewProblem(caps)
		for _, ff := range active {
			p.AddFlow(ff.links, utilityFor(ff.size))
		}
		res := oracle.Solve(p, oracle.SolveOptions{
			MaxIter: 1500, Tol: 1e-7, InitPrices: prices,
		})
		prices = res.Prices
		return res.Rates
	}

	for next < len(arrivals) || len(active) > 0 {
		var rates []float64
		if len(active) > 0 {
			rates = solve()
		}
		// Earliest departure under current rates.
		depT, depI := math.Inf(1), -1
		for i, ff := range active {
			if rates[i] <= 0 {
				continue
			}
			t := now + ff.remaining*8/rates[i]
			if t < depT {
				depT, depI = t, i
			}
		}
		arrT := math.Inf(1)
		if next < len(arrivals) {
			arrT = arrivals[next].At.Seconds()
		}
		t := math.Min(depT, arrT)
		// Drain.
		for i, ff := range active {
			ff.remaining -= rates[i] / 8 * (t - now)
			if ff.remaining < 0 {
				ff.remaining = 0
			}
		}
		now = t
		if depT <= arrT && depI >= 0 {
			ff := active[depI]
			out[ff.idx] = now - arrivals[ff.idx].At.Seconds()
			active = append(active[:depI], active[depI+1:]...)
		} else {
			a := arrivals[next]
			fwd, _ := topo.Route(a.Src, a.Dst, spines[next])
			active = append(active, &fluidFlow{
				idx:       next,
				links:     PathLinkIDs(fwd),
				size:      a.Size,
				remaining: float64(a.Size),
			})
			next++
		}
	}
	// Add the base RTT: even the Oracle cannot beat propagation.
	d0 := cfg.Topo.BaseRTT().Seconds()
	for i := range out {
		out[i] += d0
	}
	// Guard against zero/NaN ideals for downstream division.
	for i := range out {
		if math.IsNaN(out[i]) || out[i] <= 0 {
			out[i] = d0
		}
	}
	return out
}
