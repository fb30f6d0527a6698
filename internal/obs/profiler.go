package obs

// Phase identifies one segment of an engine's event loop. The phases
// are chosen so that consecutive Lap calls tile the whole loop: the
// sum over phases equals the wall time spent inside Run, so the
// breakdown accounts for the whole run (TestPhaseCoverage in the leap
// package pins ≥ 90% of its wall clock).
type Phase uint8

const (
	// PhaseLoop is the event-loop bookkeeping between instrumented
	// sections: the step dispatch, next-event time selection, and the
	// Run loop itself.
	PhaseLoop Phase = iota
	// PhaseAdmit is arrival admission: popping due arrivals and
	// seeding (or fast-pathing) them into the active set.
	PhaseAdmit
	// PhaseFlood is the component flood: partitioning a batch's
	// touched flows into disjoint link-sharing components.
	PhaseFlood
	// PhaseSolve is the allocator solves plus the component-local rate
	// install.
	PhaseSolve
	// PhaseResplice is the completion-event resplice: applying the
	// moved events to the heap, plus stale sweeps.
	PhaseResplice
	// PhaseComplete is the completion side: scanning heap tops,
	// popping due events, and retiring finished flows.
	PhaseComplete
	// PhaseDrain is horizon payload materialization — realizing the
	// lazy drains when a finite deadline cuts a run short.
	PhaseDrain
	// PhaseCount is the number of phases.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	"loop", "admit", "flood", "solve", "resplice", "complete", "drain",
}

// PhaseName returns the short lower-case name of a phase ("solve",
// "flood", ...).
func PhaseName(p Phase) string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseProfiler accumulates wall time per phase with one monotonic
// clock read per phase boundary. The protocol is Arm once at the top
// of a run, then Lap(phase) at the end of each phase: Lap charges the
// time since the previous boundary to the given phase, so consecutive
// laps tile the run with no gaps and no double counting.
//
// A nil *PhaseProfiler is a valid no-op receiver, but hot loops
// should guard call sites with their own nil check so the disabled
// path costs a predictable branch instead of a function call.
//
// A PhaseProfiler is single-threaded: it belongs to the engine's
// event loop.
type PhaseProfiler struct {
	last  int64
	nanos [PhaseCount]int64
	laps  [PhaseCount]int64
}

// NewPhaseProfiler returns an armed profiler.
func NewPhaseProfiler() *PhaseProfiler {
	return &PhaseProfiler{last: Now()}
}

// Arm restarts the boundary clock at now, so the next Lap charges
// only time spent after this call. Engines call it on Run entry;
// accumulated totals are preserved across Runs.
func (p *PhaseProfiler) Arm() {
	if p == nil {
		return
	}
	p.last = Now()
}

// Lap charges the time since the previous boundary (the last Arm or
// Lap) to ph and advances the boundary.
func (p *PhaseProfiler) Lap(ph Phase) {
	if p == nil {
		return
	}
	now := Now()
	p.nanos[ph] += now - p.last
	p.laps[ph]++
	p.last = now
}

// Nanos returns the accumulated per-phase wall time in nanoseconds.
func (p *PhaseProfiler) Nanos() [PhaseCount]int64 {
	if p == nil {
		return [PhaseCount]int64{}
	}
	return p.nanos
}

// Laps returns how many laps each phase accumulated.
func (p *PhaseProfiler) Laps() [PhaseCount]int64 {
	if p == nil {
		return [PhaseCount]int64{}
	}
	return p.laps
}

// TotalNanos returns the sum over all phases.
func (p *PhaseProfiler) TotalNanos() int64 {
	if p == nil {
		return 0
	}
	total := int64(0)
	for _, n := range p.nanos {
		total += n
	}
	return total
}

// Reset clears the accumulated totals and re-arms the clock.
func (p *PhaseProfiler) Reset() {
	if p == nil {
		return
	}
	*p = PhaseProfiler{last: Now()}
}

// PhaseMap renders a per-phase nanosecond array as a name → nanos map
// (zero phases omitted) — the JSON-friendly view of leap.Stats.PhaseNanos.
func PhaseMap(nanos [PhaseCount]int64) map[string]int64 {
	m := make(map[string]int64, PhaseCount)
	for ph, n := range nanos {
		if n != 0 {
			m[phaseNames[ph]] = n
		}
	}
	return m
}
