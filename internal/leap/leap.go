// Package leap is an event-driven flow-level simulation engine: the
// sparse-workload fast path next to internal/fluid's epoch engine.
//
// The fluid engine advances in fixed epochs — admit, allocate, drain —
// so a sparse dynamic workload burns almost all of its cycles
// re-solving an unchanged allocation between arrivals. This package
// instead leaps straight to the next event: the earlier of the next
// scheduled arrival and the earliest flow (or group) completion under
// the current rates. Rates are recomputed only when the active set
// changes, completion times are exact (no epoch quantization of
// arrivals or departures), and fully idle or fully steady stretches
// cost nothing regardless of their simulated length. This is the
// standard flow-level event-driven construction — the same one
// harness.FluidIdealFCTs uses for the paper's instantaneous Oracle —
// generalized to pluggable allocators, finite multipath groups, and
// million-flow workloads.
//
// The engine reuses the fluid package wholesale: fluid.Network link
// capacities, fluid.Flow/fluid.Group state, and every fluid.Allocator
// (WaterFill, XWI, DGD, Oracle). For the stationary allocators
// (WaterFill, Oracle) event-driven advancement is exact: rates are a
// pure function of the active set, so holding them constant between
// events loses nothing. For the dynamic allocators (XWI, DGD) each
// event runs the allocator's IterPerEpoch internal iterations once —
// configure enough iterations to reach the fixed point (prices
// warm-start across events) and the engine models a transport that
// converges between events, which the paper measures to take only
// tens of RTTs; the epoch engine remains the tool for studying the
// convergence transient itself.
//
// Work is bounded by LOCAL events, not events: an arrival or
// departure can only disturb the flows in its own connected component
// of the link-sharing graph (flows are vertices, sharing a link is an
// edge, and a multipath group's members are linked through their
// shared payload), because the component's flows collectively see
// every unit of capacity on every link they cross — no flow outside
// it competes there. So each coupled event re-solves just the touched
// component(s), via the allocators' link-closed subset path
// (fluid.SubsetAllocator): the engine keeps a per-link index of
// active flows, floods out from the event's flows to collect the
// component, and hands exactly those flows to the allocator against
// the full link capacities. Flows in untouched components provably
// keep their rates, and their scheduled completions stay valid.
//
// Completion times live in an event heap keyed on the times implied
// by each flow's latest rate. Re-solving a component resplices only
// that component's events: members carry a reallocation epoch, stale
// events are discarded lazily when they surface (with a bulk sweep
// when they pile up), and — because a completion time computed from
// an unchanged rate is still exact — a member whose re-solved rate
// came back identical keeps its event untouched. The active set is
// maintained incrementally: arrivals append, completions compact in
// place, and a component is always handed to the allocator in stable
// admission order, which keeps event orderings bit-deterministic for
// a fixed schedule.
//
// The limiting fast paths fall out of the same machinery: a
// single-path flow that shares no link with any active flow is a
// component of size one, so its arrival takes its path's minimum
// capacity (the single-flow optimum under any increasing utility) and
// pushes one heap event with no allocator call at all, and a
// departure that leaves its links empty pops one. On sparse
// workloads, where most flows run alone at line rate, most events
// reduce to O(path length + log n) — and even the coupled minority
// pays for its few-flow component, not for the whole active set.
//
// All events sharing an instant — a batch of synchronized arrivals
// plus any completions landing on it — seed one reallocation batch:
// the flood partitions the touched flows into their disjoint connected
// components (overlapping seeds merge), each component is solved in
// turn, and the moved completion events are respliced afterwards. The
// engine is single-threaded: one event loop, one completion heap, one
// solver view. Completions pop in a canonical (time, id) order, so a
// fixed schedule replays bit for bit.
package leap

import (
	"fmt"
	"math"
	"sort"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// Config parameterizes an Engine.
type Config struct {
	// Allocator computes rates at each active-set change (default
	// fluid.NewWaterFill() — stationary, so event-driven advancement
	// is exact).
	Allocator fluid.Allocator
	// Global disables component-local reallocation and the
	// independence elision: every coupled arrival and every departure
	// re-solves the full active set. The A/B switch for verifying the
	// component machinery (rates and completions must come out
	// byte-identical under stationary allocators) and for measuring
	// the allocator work it saves. Engines whose Allocator does not
	// implement fluid.SubsetAllocator run Global regardless.
	Global bool
	// Workers is ignored: the engine is serial.
	//
	// Deprecated: kept only because the numbench benchmark module
	// still sets it; remove it with the next change to numbench.
	Workers int
	// LinkShards is ignored: the engine keeps one completion heap.
	//
	// Deprecated: kept only because the numbench benchmark module
	// still sets it; remove it with the next change to numbench.
	LinkShards []int
	// SweepThreshold is the stale-event count beyond which the event
	// heap is bulk-swept (once stale events also outnumber its live
	// ones); default 64. Any threshold yields identical
	// completions — it only trades sweep frequency against heap
	// growth, which TestSweepThresholdEquivalence pins.
	SweepThreshold int
	// Obs attaches optional observability hooks: a phase profiler for
	// the event loop, a tracer recording batch and solve spans, a live
	// progress snapshot, and registry metrics. Nil hooks (the default)
	// cost nothing — every instrumentation point is guarded by a nil
	// check, so the hot loop stays allocation-free and completions are
	// byte-identical with hooks on or off (instrumentation never
	// touches engine state).
	Obs obs.Hooks
	// Table and GroupTable, when non-nil, are the pooled storage the
	// engine acquires its flows and groups from (defaults are fresh
	// per-engine tables). Passing shared tables lets consecutive
	// engines — or consecutive Run+ReleaseFinished cycles on one —
	// recycle ids, slab slots, and path-arena segments, so sustained
	// churn allocates nothing.
	Table      *fluid.FlowTable
	GroupTable *fluid.GroupTable
}

func (c Config) withDefaults() Config {
	if c.Allocator == nil {
		c.Allocator = fluid.NewWaterFill()
	}
	if c.SweepThreshold <= 0 {
		c.SweepThreshold = 64
	}
	return c
}

// Stats is the engine's work telemetry: what the run cost, in the
// units that explain the event-driven design.
type Stats struct {
	// Events is how many events (arrival instants and completion
	// batches) were processed.
	Events int
	// Allocs is how many allocator solves ran — one per coupled event
	// whose component holds more than one flow.
	Allocs int
	// SolvedFlows is the total flows handed to the allocator across
	// all solves (allocations × flows-per-solve), the engine's real
	// allocator work.
	SolvedFlows int
	// MaxComponent is the largest single solve's flow count.
	MaxComponent int
	// Elided is how many active-set changes were handled with no
	// allocator call at all: isolated arrivals and size-one components
	// (both take the path's minimum capacity), plus departures that
	// left nothing behind to re-solve.
	Elided int
	// FullSolveFlows is the counterfactual SolvedFlows of the
	// pre-component engine (global re-solves with the isolated-arrival
	// elision it already had): the full active-set size, summed over
	// every event that reaches reallocation — size-one components
	// included, since only component tracking can elide those — while
	// isolated arrivals stay free on both sides of the comparison.
	// SolvedFlows / FullSolveFlows is therefore a conservative
	// component-local win; a fully global engine with no elision at
	// all pays far more still (Config{Global}, measured by
	// BenchmarkLeapComponents).
	FullSolveFlows int
	// Batches is how many reallocation batches ran — one per event
	// instant whose seeds (same-timestamp arrivals plus completions
	// landing on it) touched at least one component.
	Batches int
	// BatchComponents is the total disjoint components across all
	// batches; BatchComponents/Batches is the mean batch width.
	BatchComponents int
	// MaxBatchComponents is the widest single batch's component count.
	MaxBatchComponents int
	// ParallelSolves, GateSerial and GateParallel are always zero: the
	// engine is serial.
	//
	// Deprecated: kept only because the numbench benchmark module
	// still reads them; remove them with the next change to numbench.
	ParallelSolves int
	GateSerial     int
	GateParallel   int
	// Faults is how many fault events (FailLink/RecoverLink) the
	// engine applied, nested repeats and no-op recoveries included.
	Faults int
	// Stranded counts plain finite flows driven to rate zero — every
	// usable path crosses a dead link — with their completion event
	// invalidated and payload frozen; Resumed counts strandings lifted
	// by a later re-solve finding positive rate again (recovery, or a
	// departure freeing an alternative). A flow stranded twice counts
	// twice. Groups never strand member-by-member: a group with every
	// member dead simply holds total rate zero until recovery.
	Stranded int
	Resumed  int
	// StrandedSec is the total flow-seconds spent stranded, accrued
	// when each stranding is lifted — flows still stranded when the
	// run stops are not included (their loss is visible as unfinished
	// Remaining instead).
	StrandedSec float64
	// CapacityLostBitSec integrates failed capacity over downtime:
	// Σ base-capacity × (recover − fail) over recovered links, in
	// bit-seconds. Links still down when the run stops are not
	// included; LinksDown reports how many those are.
	CapacityLostBitSec float64
	// LinksDown is the number of links currently failed (depth ≥ 1).
	LinksDown int
	// AllocIters is the allocator's total internal iterations (price
	// updates, gradient steps, solver iterations) when the allocator
	// counts them (implements fluid.IterCounter); zero otherwise.
	// Allocs counts solve calls; this counts the work inside them.
	AllocIters int64
	// PhaseNanos is the per-phase wall-time breakdown of Run when a
	// profiler hook is attached (Config.Obs.Profiler); all zeros
	// otherwise. Index with obs.Phase; consecutive laps tile the event
	// loop, so the sum is within noise of the wall time spent in Run.
	PhaseNanos [obs.PhaseCount]int64
}

// flowState is the engine's per-flow bookkeeping, packed to 16 bytes
// so a million-flow run stays cache-friendly: refT is the time the
// flow's rate was last set — payload drain is lazy, Remaining holds
// the payload as of refT and is materialized via
// Remaining -= (now − refT) × rate / 8 only when the rate actually
// changes, so an event costs its component, not a sweep over every
// active flow (and a same-instant rate change drains exactly zero,
// keeping component-local runs bitwise equal to global ones); seq is
// the admission sequence number components are sorted by; and bits
// holds the reallocation epoch (heap events carry the epoch they were
// pushed under; a mismatch marks them stale) plus the flag bits below.
type flowState struct {
	refT float64
	bits uint32
	seq  int32
}

// flowState/groupState bits: four flags and a 28-bit epoch. evBit
// marks a live heap event, seededBit a pending reallocation seed,
// inCompBit membership in the component being collected. Groups never
// use inCompBit (the flood tracks them by mark), so its slot doubles
// as activeBit — group membership in the activeGroups slice, replacing
// the old map[*Group]bool lookup on every member admission.
// strandedBit marks a plain finite flow currently held at rate zero by
// dead capacity (see Stats.Stranded); while it is set the flow has no
// heap event and refT records when the stranding began, so the resume
// can accrue the stranded-time integral.
const (
	evBit       = 1 << 0
	seededBit   = 1 << 1
	inCompBit   = 1 << 2
	activeBit   = 1 << 2 // groupState only; shares inCompBit's slot
	strandedBit = 1 << 3
	epShift     = 4
	epInc       = 1 << epShift
	epMask      = ^uint32(epInc - 1)
)

// groupState is the per-group analog: mark is the component flood's
// visited stamp and the seededBit slot doubles as the per-apply
// "member rate moved" flag (the two uses never overlap in time).
type groupState struct {
	refT float64
	bits uint32
	mark int
}

// grow returns s with its backing array doubled once length reaches
// capacity: for multi-megabyte slices the runtime's growth factor
// drops to 1.25×, and the reallocation churn is measurable at a
// million flows. Use as append(grow(s), ...).
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		g := make([]T, len(s), 2*cap(s)+64)
		copy(g, s)
		return g
	}
	return s
}

// compRange is one disjoint connected component within a batch's
// flood, as index ranges into the engine's comp/compG scratch slices.
type compRange struct{ f0, f1, g0, g1 int }

// evOp is one deferred completion-event resplice — a flow or group
// whose rate change requires invalidating and re-pushing its heap
// event at the current instant. A batch's solves record their ops and
// the resplice phase applies them once every component has solved.
// Like heap events, ops carry dense ids, resolved through the tables
// at apply time.
type evOp struct {
	id  int32
	grp bool
}

// strandDelta is one solve's stranding transitions, folded into the
// engine's counters when the solve's rates are installed.
type strandDelta struct {
	stranded int
	resumed  int
	sec      float64
}

// Engine advances a fluid network event by event. Between events every
// rate is constant, so the state at the next event follows in closed
// form; nothing is simulated in between.
type Engine struct {
	net    *fluid.Network
	alloc  fluid.Allocator
	global bool
	// tbl/gtbl are the pooled flow and group storage (Config.Table /
	// Config.GroupTable, or per-engine tables): slab-stable pointers,
	// dense recycled ids, arena-backed paths. Every id the engine keys
	// its state by — heap events, evOps, linkFlows, fs/gs — resolves
	// through them.
	tbl  *fluid.FlowTable
	gtbl *fluid.GroupTable
	// sub is the subset solver every component solve runs on; nil in
	// global mode.
	sub   fluid.SubsetAllocator
	sweep int

	now      float64
	pending  []*fluid.Flow // arrival order; pending[next:] not yet admitted
	next     int
	unsorted bool

	// active holds the admitted flows in admission order. In component
	// mode completed flows are compacted out lazily — only once they
	// reach half the slice — so a completion batch costs its own size,
	// not a sweep of every active flow; nDone counts the stale entries
	// (liveActive() is the true active count). Global mode compacts
	// eagerly, since every re-solve hands e.active to the allocator.
	active         []*fluid.Flow
	nDone          int
	activeGroups   []*fluid.Group
	nDoneG         int
	finished       []*fluid.Flow
	finishedGroups []*fluid.Group

	rates []float64
	// heap holds the completion and fault events.
	heap eventHeap
	// staleEv counts events invalidated by a reallocation but not yet
	// discarded; when they outnumber the live ones the heap is swept in
	// one pass.
	staleEv int
	// changed is the global mode's full-re-solve latch.
	changed bool

	// linkFlows[l] lists the active flows crossing link l — by dense
	// id, four bytes per entry — maintained exactly: arrivals append,
	// departures swap-remove. It is the link-sharing index — the
	// isolation fast-path check is a length test and the component
	// flood traverses it as the adjacency (resolving ids through the
	// flow table only for flows not yet collected). Global mode keeps
	// no index (every change re-solves everything).
	linkFlows [][]int32
	// linkMark stamps the links a flood visited with the flood's
	// round; every flood draws a fresh round, so marks never need
	// clearing.
	linkMark []int
	round    int

	// fs[id] is the per-flow engine state (flow IDs are dense); gs[id]
	// the per-group analog.
	fs     []flowState
	gs     []groupState
	nadmit int32

	// touched seeds the next component flood: flows whose arrival
	// coupled them to someone, and the still-active neighbors of
	// departures. Cleared by reallocate.
	touched []*fluid.Flow
	// comp/compG/comps are the batch's component table: the flood
	// fills comps with disjoint ranges over comp/compG, and each
	// component solves into its ratesArena range. ops collects a
	// solve point's resplice ops in component order.
	comp       []*fluid.Flow
	compG      []*fluid.Group
	comps      []compRange
	ratesArena []float64
	ops        []evOp

	// Fault-injection state, lazily allocated by the first
	// FailLink/RecoverLink call so fault-free runs keep their
	// zero-alloc steady state untouched. baseCap snapshots the
	// capacities recovery restores; downDepth[l] counts nested
	// failures of link l (capacity changes only on the 0↔1 edges);
	// capDownT[l] stamps when l last went down, for the capacity-lost
	// integral; pendingFaults counts scheduled fault events not yet
	// applied, so the idle early-exit cannot drop a future fault.
	baseCap       []float64
	downDepth     []int32
	capDownT      []float64
	pendingFaults int
	faults        int
	stranded      int
	resumed       int
	strandedSec   float64
	capLostBitSec float64
	linksDown     int
	// batchCause is the FlowTracer cause code the next solve's rate
	// segments are stamped with: CauseSolve normally, CauseFail or
	// CauseRecover for the re-solve a fault event triggers (fault
	// instants solve alone — completions at the same instant retire
	// first — so the stamp is exact). Reset to CauseSolve after every
	// solve point.
	batchCause uint8

	events    int
	allocs    int
	solved    int
	maxComp   int
	elided    int
	fullSolve int

	batches    int
	batchComps int
	maxBatch   int

	// Observability hooks (nil = disabled; see Config.Obs). The tracer
	// puts batch spans on track 0 and component solve spans on track 1.
	prof    *obs.PhaseProfiler
	tracer  *obs.Tracer
	prog    *obs.Progress
	metrics *obs.EngineMetrics

	// Flow-lifecycle tracing (nil = disabled). bneckRep is the
	// allocator's bottleneck reporter (nil when unsupported); bneck is
	// its reusable output scratch.
	ft       *obs.FlowTracer
	bneckRep fluid.BottleneckReporter
	bneck    []int32
}

// NewEngine returns an event-driven engine over net.
func NewEngine(net *fluid.Network, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	sub, ok := cfg.Allocator.(fluid.SubsetAllocator)
	tbl := cfg.Table
	if tbl == nil {
		tbl = fluid.NewFlowTable()
	}
	gtbl := cfg.GroupTable
	if gtbl == nil {
		gtbl = fluid.NewGroupTable()
	}
	e := &Engine{
		net:        net,
		alloc:      cfg.Allocator,
		tbl:        tbl,
		gtbl:       gtbl,
		global:     cfg.Global || !ok,
		sweep:      cfg.SweepThreshold,
		batchCause: obs.CauseSolve,
	}
	if !e.global {
		e.linkFlows = make([][]int32, net.Links())
		e.linkMark = make([]int, net.Links())
		e.sub = sub
		if ps, isView := cfg.Allocator.(fluid.ParallelSubsetAllocator); isView {
			// Prime once, then solve every component on one Worker
			// view: the allocator's warm state stays in the parent and
			// the view owns the per-call workspace.
			ps.Prime(net)
			e.sub = ps.Worker()
		}
	}
	e.prof = cfg.Obs.Profiler
	e.prog = cfg.Obs.Progress
	e.metrics = cfg.Obs.Metrics
	if tr := cfg.Obs.Tracer; tr != nil {
		e.tracer = tr
		tr.EnsureTracks(2)
		tr.SetTrackName(0, "engine")
		tr.SetTrackName(1, "solve")
	}
	if ft := cfg.Obs.FlowTrace; ft != nil {
		e.ft = ft
		ft.Bind(net.Capacity)
		if br, ok := e.alloc.(fluid.BottleneckReporter); ok {
			e.bneckRep = br
		}
	}
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Net returns the engine's network.
func (e *Engine) Net() *fluid.Network { return e.net }

// Active returns the live view of active flows (including group
// members), in stable admission order; valid until the next Step.
func (e *Engine) Active() []*fluid.Flow {
	e.compactActive()
	return e.active
}

// Finished returns every completed flow, in completion order. Group
// members appear here too, stamped with their group's finish time.
// ReleaseFinished truncates the list.
func (e *Engine) Finished() []*fluid.Flow { return e.finished }

// FinishedGroups returns every completed group, in completion order.
func (e *Engine) FinishedGroups() []*fluid.Group { return e.finishedGroups }

// Tables returns the engine's flow and group storage tables (for
// inspection, or to hand to another engine's Config).
func (e *Engine) Tables() (*fluid.FlowTable, *fluid.GroupTable) { return e.tbl, e.gtbl }

// ReleaseFinished recycles every finished flow and group back to the
// engine's tables and truncates the finished lists, returning the
// counts released. Churn-heavy drivers call it after harvesting FCTs —
// between Run calls, or periodically during one — so ids, slab slots,
// and path segments recycle and sustained churn allocates nothing;
// without it the tables grow with the total admitted (every pointer
// stays valid forever, the pre-table behavior). Previously returned
// pointers to the released flows and groups are invalid afterward.
func (e *Engine) ReleaseFinished() (flows, groups int) {
	// The active slices may still carry retired entries awaiting lazy
	// compaction, and the admitted prefix of pending still references
	// its flows; drop both so nothing points at a recycled slot.
	e.compactActive()
	e.compactActiveGroups()
	// A completion batch can seed a survivor that then retires in the
	// same instant; when the run drains right there, the done flow
	// stays in the seed list (the flood would skip it). Releasing it
	// anyway would hand the stale seed to the slot's next tenant, so
	// drop done seeds before recycling.
	if len(e.touched) > 0 {
		kept := e.touched[:0]
		for _, f := range e.touched {
			if !f.Done() {
				kept = append(kept, f)
			}
		}
		for i := len(kept); i < len(e.touched); i++ {
			e.touched[i] = nil
		}
		e.touched = kept
	}
	if e.next > 0 {
		n := copy(e.pending, e.pending[e.next:])
		clear(e.pending[n:])
		e.pending = e.pending[:n]
		e.next = 0
	}
	flows, groups = len(e.finished), len(e.finishedGroups)
	for i, f := range e.finished {
		e.tbl.Release(f)
		e.finished[i] = nil
	}
	e.finished = e.finished[:0]
	for i, g := range e.finishedGroups {
		e.gtbl.Release(g)
		e.finishedGroups[i] = nil
	}
	e.finishedGroups = e.finishedGroups[:0]
	return flows, groups
}

// Allocs returns how many allocator solves have run.
func (e *Engine) Allocs() int { return e.allocs }

// Events returns how many events have been processed.
func (e *Engine) Events() int { return e.events }

// Stats returns the engine's work telemetry so far.
func (e *Engine) Stats() Stats {
	s := Stats{
		Events:             e.events,
		Allocs:             e.allocs,
		SolvedFlows:        e.solved,
		MaxComponent:       e.maxComp,
		Elided:             e.elided,
		FullSolveFlows:     e.fullSolve,
		Batches:            e.batches,
		BatchComponents:    e.batchComps,
		MaxBatchComponents: e.maxBatch,
		Faults:             e.faults,
		Stranded:           e.stranded,
		Resumed:            e.resumed,
		StrandedSec:        e.strandedSec,
		CapacityLostBitSec: e.capLostBitSec,
		LinksDown:          e.linksDown,
	}
	if ic, ok := e.alloc.(fluid.IterCounter); ok {
		s.AllocIters = ic.SolveIters()
	}
	if e.prof != nil {
		s.PhaseNanos = e.prof.Nanos()
	}
	return s
}

// AddFlow schedules a flow over links, arriving at time at (seconds;
// at ≤ Now admits it on the next Step), with utility u and payload
// sizeBytes (0 = unbounded). It returns the Flow for inspection.
func (e *Engine) AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow {
	f := e.tbl.Acquire(links, u, sizeBytes, at)
	id := f.ID
	for id >= len(e.fs) {
		e.fs = append(grow(e.fs), flowState{})
	}
	// Carry the slot's epoch forward, bumped: a recycled id can still
	// have stale completion events sitting in the heap, and the bump
	// keeps them stale against the new tenant.
	st := &e.fs[id]
	*st = flowState{bits: (st.bits + epInc) & epMask}
	if n := len(e.pending); n > 0 && at < e.pending[n-1].Arrive {
		e.unsorted = true
	}
	e.pending = append(grow(e.pending), f)
	return f
}

// AddGroup schedules a multipath aggregate over the given paths (one
// member subflow per path), arriving as a unit at time at, with
// utility u of the group's TOTAL rate and a shared payload of
// sizeBytes (0 = unbounded). It returns the Group for inspection; the
// member flows are in Group.Members, path order.
func (e *Engine) AddGroup(paths [][]int, u core.Utility, sizeBytes int64, at float64) *fluid.Group {
	g := e.gtbl.Acquire(u, sizeBytes, at)
	id := g.ID
	for id >= len(e.gs) {
		e.gs = append(grow(e.gs), groupState{})
	}
	// As in AddFlow: keep a recycled id's epoch moving forward.
	gst := &e.gs[id]
	*gst = groupState{bits: (gst.bits + epInc) & epMask}
	for _, links := range paths {
		g.AddMember(e.AddFlow(links, u, 0, at))
	}
	return g
}

// FailLink schedules directed link link to fail at time at (seconds):
// its capacity drops to zero and every flow crossing it is re-solved —
// component-locally, since a failed link disturbs exactly the flows in
// its active index. Flows left with no usable capacity are stranded
// (rate zero, completion event cancelled, payload frozen); ECMP group
// members on the link drop to rate zero and the group's traffic
// re-splits over its surviving paths. Failures nest: failing an
// already-failed link deepens a counter and changes nothing until the
// matching recoveries unwind it. Switch failures are expressed as the
// switch's incident directed links (fluid.FatTree's *SwitchLinks).
//
// Fault events ride the same epoch-stamped heap as completions and
// retire in a canonical order (completions first at a shared instant,
// then failures, then recoveries, then by link id), so a fault run
// replays bit for bit.
func (e *Engine) FailLink(link int, at float64) { e.scheduleFault(link, at, evkFail) }

// RecoverLink schedules link to recover at time at: once every nested
// failure has unwound, capacity is restored to its construction-time
// value, stranded flows on the link resume (a fresh re-solve assigns
// them positive rate and reschedules their completions), and group
// traffic re-splits over the recovered path. Recovering a healthy link
// is a counted no-op.
func (e *Engine) RecoverLink(link int, at float64) { e.scheduleFault(link, at, evkRecover) }

func (e *Engine) scheduleFault(link int, at float64, kind uint8) {
	if link < 0 || link >= e.net.Links() {
		panic(fmt.Sprintf("leap: fault on link %d of a %d-link network", link, e.net.Links()))
	}
	if e.baseCap == nil {
		e.baseCap = append([]float64(nil), e.net.Capacity...)
		e.downDepth = make([]int32, e.net.Links())
		e.capDownT = make([]float64, e.net.Links())
	}
	e.pendingFaults++
	e.heap.push(event{t: at, id: int32(link), kind: kind})
}

// applyFault performs one due fault event at time t: flip the link's
// capacity on the 0↔1 depth edge, account the degradation, and seed
// exactly the active flows crossing the link for the next re-solve.
// Same-instant fail+recover pairs cancel (capacity net unchanged, zero
// downtime accrued) but still trigger the seeded re-solve, which finds
// every rate unchanged and leaves the schedule untouched.
func (e *Engine) applyFault(link int, fail bool, t float64) {
	e.pendingFaults--
	e.faults++
	if e.metrics != nil && e.metrics.Faults != nil {
		e.metrics.Faults.Inc()
	}
	if fail {
		e.downDepth[link]++
		if e.downDepth[link] > 1 {
			return
		}
		e.net.Capacity[link] = 0
		e.capDownT[link] = t
		e.linksDown++
		e.batchCause = obs.CauseFail
	} else {
		if e.downDepth[link] == 0 {
			return
		}
		e.downDepth[link]--
		if e.downDepth[link] > 0 {
			return
		}
		e.net.Capacity[link] = e.baseCap[link]
		if dt := t - e.capDownT[link]; dt > 0 {
			e.capLostBitSec += e.baseCap[link] * dt
		}
		e.linksDown--
		e.batchCause = obs.CauseRecover
	}
	if e.global {
		e.changed = true
		return
	}
	for _, id := range e.linkFlows[link] {
		e.seed(e.tbl.ByID(int(id)))
	}
}

// admitDue moves every pending flow with Arrive ≤ now into the active
// set. A single-path flow whose links carry no other active flow takes
// the independence fast path — rate set to its path's minimum capacity
// and one completion event pushed, no allocation; everything else
// seeds the next component re-solve (or, in global mode, latches the
// full one).
func (e *Engine) admitDue() {
	if e.unsorted {
		rest := e.pending[e.next:]
		sort.SliceStable(rest, func(i, j int) bool { return rest[i].Arrive < rest[j].Arrive })
		e.unsorted = false
	}
	n := e.next
	for n < len(e.pending) && e.pending[n].Arrive <= e.now {
		f := e.pending[n]
		e.fs[f.ID].seq = e.nadmit
		e.nadmit++
		iso := false
		if !e.global {
			iso = f.Group == nil && e.isolated(f)
			for _, l := range f.Links {
				e.linkFlows[l] = append(e.linkFlows[l], int32(f.ID))
			}
		}
		e.active = append(e.active, f)
		if g := f.Group; g != nil {
			gst := &e.gs[g.ID]
			if gst.bits&activeBit == 0 {
				gst.bits |= activeBit
				e.activeGroups = append(e.activeGroups, g)
			}
		}
		if e.ft != nil && f.Group == nil && f.SizeBytes > 0 {
			e.ft.Admit(f.ID, f.SizeBytes, f.Arrive, f.Links)
		}
		switch {
		case iso:
			e.admitIsolated(f)
		case e.global:
			e.changed = true
		default:
			e.seed(f)
		}
		n++
	}
	e.next = n
	// Compact the admitted prefix out once it dominates the slice:
	// amortized O(1) per admission, and under churn + ReleaseFinished
	// it keeps pending from growing with the total admitted (and from
	// pinning recycled flows).
	if n > 64 && 2*n >= len(e.pending) {
		m := copy(e.pending, e.pending[n:])
		clear(e.pending[m:])
		e.pending = e.pending[:m]
		e.next = 0
	}
}

// isolated reports whether none of f's links carry an active flow.
func (e *Engine) isolated(f *fluid.Flow) bool {
	for _, l := range f.Links {
		if len(e.linkFlows[l]) != 0 {
			return false
		}
	}
	return true
}

// pathMinCap returns the minimum capacity along f's path — the
// single-flow optimum, which any increasing utility wants in full.
func (e *Engine) pathMinCap(f *fluid.Flow) float64 {
	rate := math.Inf(1)
	for _, l := range f.Links {
		if c := e.net.Capacity[l]; c < rate {
			rate = c
		}
	}
	return rate
}

// admitIsolated gives an independent flow its single-flow optimum and
// splices its completion into the schedule.
func (e *Engine) admitIsolated(f *fluid.Flow) {
	f.Rate = e.pathMinCap(f)
	e.fs[f.ID].refT = e.now
	e.elided++
	if f.SizeBytes > 0 && f.Rate > 0 {
		e.pushFlowEvent(f)
	} else if f.SizeBytes > 0 {
		// Admitted straight onto a dead path: stranded from birth, no
		// completion to schedule until a recovery re-solves it.
		e.fs[f.ID].bits |= strandedBit
		e.stranded++
		if e.metrics != nil && e.metrics.Stranded != nil {
			e.metrics.Stranded.Inc()
		}
	}
	if e.ft != nil {
		// No solver ran: the flow takes its line rate, bottlenecked by
		// the path's min-capacity link (the tracer's default).
		e.ft.Rate(f.ID, e.now, f.Rate, -1, obs.CauseAdmit, 1, uint64(e.batches))
	}
}

// seed queues f's component for the next reallocation.
func (e *Engine) seed(f *fluid.Flow) {
	st := &e.fs[f.ID]
	if st.bits&seededBit != 0 {
		return
	}
	st.bits |= seededBit
	e.touched = append(e.touched, f)
}

// unlink removes a departing f from its links' lists and seeds the
// neighbors it leaves behind — the flows whose component just gained
// capacity. It reports whether there were any; false is the solo
// departure, whose capacity was visible to nobody, so the remaining
// schedule stands.
func (e *Engine) unlink(f *fluid.Flow) (coupled bool) {
	id := int32(f.ID)
	for _, l := range f.Links {
		lf := e.linkFlows[l]
		for i, n := range lf {
			if n == id {
				last := len(lf) - 1
				lf[i] = lf[last]
				lf = lf[:last]
				e.linkFlows[l] = lf
				break
			}
		}
		for _, n := range lf {
			coupled = true
			e.seed(e.tbl.ByID(int(n)))
		}
	}
	return coupled
}

// enqueueTo adds f to the component list being collected, once.
func (e *Engine) enqueueTo(list []*fluid.Flow, f *fluid.Flow) []*fluid.Flow {
	st := &e.fs[f.ID]
	if f.Done() || st.bits&inCompBit != 0 {
		return list
	}
	st.bits |= inCompBit
	return append(list, f)
}

// enqueueID is enqueueTo keyed by dense id — the flood's adjacency
// walk, which checks the state bits before resolving the flow at all
// (already-collected neighbors, the common case on dense links, never
// touch the table).
func (e *Engine) enqueueID(list []*fluid.Flow, id int32) []*fluid.Flow {
	st := &e.fs[id]
	if st.bits&inCompBit != 0 {
		return list
	}
	f := e.tbl.ByID(int(id))
	if f.Done() {
		return list
	}
	st.bits |= inCompBit
	return append(list, f)
}

// floodComponent BFSes the connected component of seed over the
// link-sharing graph (link lists for link neighbors, group membership
// for payload coupling) and appends it to the batch's component table:
// its flows in stable admission order, the groups it spans alongside.
func (e *Engine) floodComponent(seed *fluid.Flow) {
	comp, compG := e.comp, e.compG
	f0, g0 := len(comp), len(compG)
	e.round++
	r := e.round
	comp = e.enqueueTo(comp, seed)
	for i := f0; i < len(comp); i++ {
		fl := comp[i]
		if g := fl.Group; g != nil && e.gs[g.ID].mark != r {
			e.gs[g.ID].mark = r
			compG = append(compG, g)
			for _, m := range g.Members {
				comp = e.enqueueTo(comp, m)
			}
		}
		for _, l := range fl.Links {
			if e.linkMark[l] == r {
				continue
			}
			e.linkMark[l] = r
			for _, n := range e.linkFlows[l] {
				comp = e.enqueueID(comp, n)
			}
		}
	}
	// Insertion sort into admission order: components are small, and
	// this dodges sort.Slice's per-call overhead on the hot path.
	c := comp[f0:]
	for i := 1; i < len(c); i++ {
		fl := c[i]
		k := e.fs[fl.ID].seq
		j := i - 1
		for j >= 0 && e.fs[c[j].ID].seq > k {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = fl
	}
	e.comp, e.compG = comp, compG
	e.comps = append(e.comps, compRange{f0, len(comp), g0, len(compG)})
}

// collectComponents floods out from the pending seeds and partitions
// the touched flows into their disjoint connected components: one BFS
// per seed not absorbed by an earlier seed's flood, so overlapping
// seeds merge into one component and distinct components never share
// a link or a group. Seeds that already completed contribute nothing.
// It returns the component count.
func (e *Engine) collectComponents() int {
	e.comps = e.comps[:0]
	e.comp = e.comp[:0]
	e.compG = e.compG[:0]
	for _, f := range e.touched {
		e.fs[f.ID].bits &^= seededBit
	}
	for _, f := range e.touched {
		if f.Done() || e.fs[f.ID].bits&inCompBit != 0 {
			continue
		}
		e.floodComponent(f)
	}
	e.touched = e.touched[:0]
	for _, f := range e.comp {
		e.fs[f.ID].bits &^= inCompBit
	}
	return len(e.comps)
}

// invalidateFlow bumps f's epoch, marking any heap event it has stale.
func (e *Engine) invalidateFlow(f *fluid.Flow) {
	s := &e.fs[f.ID]
	if s.bits&evBit != 0 {
		e.staleEv++
	}
	s.bits = (s.bits + epInc) &^ evBit
}

func (e *Engine) invalidateGroup(g *fluid.Group) {
	s := &e.gs[g.ID]
	if s.bits&evBit != 0 {
		e.staleEv++
	}
	s.bits = (s.bits + epInc) &^ evBit
}

// pushFlowEvent schedules f's completion from now — the instant f's
// rate was installed (f.Remaining is materialized there).
func (e *Engine) pushFlowEvent(f *fluid.Flow) {
	s := &e.fs[f.ID]
	s.bits |= evBit
	e.heap.push(event{t: e.now + f.Remaining*8/f.Rate, id: int32(f.ID), ep: s.bits & epMask})
}

func (e *Engine) pushGroupEvent(g *fluid.Group) {
	s := &e.gs[g.ID]
	s.bits |= evBit
	e.heap.push(event{t: e.now + g.Remaining*8/g.Rate(), id: int32(g.ID), ep: s.bits & epMask, kind: evkGroup})
}

// valid reports whether a heap event is still live: its owner running
// and its epoch current. The kind check comes first — a fault event's
// id is a link id, never resolvable through the flow tables, and a
// capacity change can never go stale, so faults are always live. Then
// the epoch check — a stale event (and any event left by a recycled
// id's previous tenant, whose epoch the new tenant advanced past) is
// rejected without resolving its owner at all.
func (e *Engine) valid(ev event) bool {
	switch ev.kind {
	case evkFlow:
		return ev.ep == e.fs[ev.id].bits&epMask && !e.tbl.ByID(int(ev.id)).Done()
	case evkGroup:
		return ev.ep == e.gs[ev.id].bits&epMask && !e.gtbl.ByID(int(ev.id)).Done()
	}
	return true
}

// earliest prunes stale events off the heap's top and returns the
// earliest live event. While staleEv is zero the heap is provably
// all-live (stale events are counted when their owner's epoch is
// bumped), so the common case costs one comparison.
func (e *Engine) earliest() (event, bool) {
	h := &e.heap
	for e.staleEv > 0 && h.len() > 0 && !e.valid(h.top()) {
		h.pop()
		e.staleEv--
	}
	if h.len() == 0 {
		return event{}, false
	}
	return h.top(), true
}

// maybeCompact sweeps the heap once its stale events exceed the sweep
// threshold and outnumber its live ones.
func (e *Engine) maybeCompact() {
	if e.staleEv > e.sweep && 2*e.staleEv > e.heap.len() {
		e.heap.compact(e.valid)
		e.staleEv = 0
	}
}

// preApplyFlow installs a non-member flow's new rate and materializes
// its lazy drain, reporting whether its completion event must be
// respliced (applyOp performs the actual invalidate+push once the
// batch has solved). A completion time computed from an unchanged rate
// is still exact — drain is linear — so the existing event stands
// untouched, which is what keeps untouched rates' schedules
// byte-stable across other components' reallocations.
//
// A zero rate strands the flow: no drain accrues (old ≤ 0 skips the
// materialization), the resplice op invalidates its event without
// pushing a new one, and refT freezes at the stranding instant so the
// eventual resume can accrue the stranded-time integral into d.
func (e *Engine) preApplyFlow(f *fluid.Flow, rate float64, d *strandDelta) bool {
	old := f.Rate
	if f.SizeBytes == 0 {
		f.Rate = rate
		return false
	}
	s := &e.fs[f.ID]
	if rate <= 0 {
		if s.bits&strandedBit == 0 {
			s.bits |= strandedBit
			d.stranded++
			if old <= 0 {
				// Rate was already zero (admitted dead): the stranding
				// clock starts now; a positive old rate instead drains
				// below, which also sets refT to now.
				s.refT = e.now
			}
		}
	} else if s.bits&strandedBit != 0 {
		s.bits &^= strandedBit
		d.resumed++
		if dt := e.now - s.refT; dt > 0 {
			d.sec += dt
		}
	}
	if rate == old && (s.bits&evBit != 0) == (rate > 0) {
		return false
	}
	if old > 0 {
		// Materialize the lazy drain under the outgoing rate. A
		// same-instant change (now == refT) drains exactly zero.
		f.Remaining -= (e.now - s.refT) * old / 8
		if f.Remaining < 0 {
			f.Remaining = 0
		}
	}
	s.refT = e.now
	f.Rate = rate
	return true
}

// applyOp performs one deferred event resplice: invalidate the owner's
// event and, if it still drains, push its new completion.
func (e *Engine) applyOp(op evOp) {
	if !op.grp {
		f := e.tbl.ByID(int(op.id))
		e.invalidateFlow(f)
		if f.Rate > 0 {
			e.pushFlowEvent(f)
		}
		return
	}
	g := e.gtbl.ByID(int(op.id))
	e.invalidateGroup(g)
	if g.Rate() > 0 {
		e.pushGroupEvent(g)
	}
}

// preApply installs one solve's freshly solved rates (and the lazy
// group-payload materialization that must precede them) and appends
// exactly the events whose rates moved to e.ops.
func (e *Engine) preApply(flows []*fluid.Flow, groups []*fluid.Group, rates []float64, d *strandDelta) {
	// Detect member-rate movement, then materialize the moved groups'
	// lazy drain at their outgoing total, before any rate is installed.
	for _, g := range groups {
		e.gs[g.ID].bits &^= seededBit
	}
	for i, f := range flows {
		if g := f.Group; g != nil && rates[i] != f.Rate {
			e.gs[g.ID].bits |= seededBit
		}
	}
	for _, g := range groups {
		if g.SizeBytes == 0 || e.gs[g.ID].bits&seededBit == 0 {
			continue
		}
		s := &e.gs[g.ID]
		if total := g.Rate(); total > 0 {
			g.Remaining -= (e.now - s.refT) * total / 8
			if g.Remaining < 0 {
				g.Remaining = 0
			}
		}
		s.refT = e.now
	}
	for i, f := range flows {
		if f.Group != nil {
			f.Rate = rates[i]
			continue
		}
		if e.preApplyFlow(f, rates[i], d) {
			e.ops = append(e.ops, evOp{id: int32(f.ID)})
		}
	}
	for _, g := range groups {
		if g.SizeBytes == 0 {
			continue
		}
		total := g.Rate()
		gb := e.gs[g.ID].bits
		if gb&seededBit == 0 && (gb&evBit != 0) == (total > 0) {
			continue
		}
		e.ops = append(e.ops, evOp{id: int32(g.ID), grp: true})
	}
}

// solveComponent solves component ci — the size-one elision or the
// allocator call — and installs its rates. It returns how many flows
// the allocator call covered (zero when elided) and the stranding
// transitions the install observed.
func (e *Engine) solveComponent(ci int) (solved int, d strandDelta) {
	r := e.comps[ci]
	flows := e.comp[r.f0:r.f1]
	if len(flows) == 1 && flows[0].Group == nil {
		// A component of one plain flow needs no allocator at all: it
		// takes its path's minimum capacity, the same independence
		// elision its arrival fast path uses, generalized to
		// departures that leave a lone neighbor behind.
		if e.preApplyFlow(flows[0], e.pathMinCap(flows[0]), &d) {
			e.ops = append(e.ops, evOp{id: int32(flows[0].ID)})
		}
		return 0, d
	}
	rates := e.ratesArena[r.f0:r.f1]
	e.sub.AllocateSubset(e.net, flows, rates)
	e.preApply(flows, e.compG[r.g0:r.g1], rates, &d)
	return len(flows), d
}

// reallocate re-solves the disjoint component(s) the pending seeds
// touch — one batch: flood, solve and install each component in turn,
// then resplice the completion events whose rates moved.
func (e *Engine) reallocate() {
	nc := e.collectComponents()
	if e.prof != nil {
		e.prof.Lap(obs.PhaseFlood)
	}
	if nc == 0 {
		return
	}
	var batchStart int64
	if e.tracer != nil {
		batchStart = e.tracer.Clock()
	}
	e.fullSolve += e.liveActive()
	e.batches++
	e.batchComps += nc
	if nc > e.maxBatch {
		e.maxBatch = nc
	}
	if e.metrics != nil {
		e.metrics.BatchComponents.Observe(float64(nc))
	}
	if e.prog != nil {
		e.prog.RecordBatch(nc)
	}
	e.solveBatch()
	if e.tracer != nil {
		e.tracer.Span(0, "batch", batchStart, int64(nc))
	}
}

// solveBatch solves every component of the batch, accounting each
// solve as it lands, then applies the batch's resplice ops in
// component order.
func (e *Engine) solveBatch() {
	if n := len(e.comp); cap(e.ratesArena) < n {
		e.ratesArena = make([]float64, 2*n+64)
	}
	e.ratesArena = e.ratesArena[:cap(e.ratesArena)]
	e.ops = e.ops[:0]
	for ci, r := range e.comps {
		var start int64
		if e.tracer != nil {
			start = e.tracer.Clock()
		}
		solved, d := e.solveComponent(ci)
		if e.tracer != nil {
			e.tracer.Span(1, "solve", start, int64(r.f1-r.f0))
		}
		if solved > 0 {
			e.allocs++
			e.solved += solved
			if solved > e.maxComp {
				e.maxComp = solved
			}
			if e.metrics != nil {
				e.metrics.Allocs.Inc()
				e.metrics.SolvedFlows.Add(int64(solved))
				e.metrics.ComponentFlows.Observe(float64(solved))
			}
		} else {
			e.elided++
		}
		e.accumulateStrands(&d)
		if e.ft != nil {
			e.traceComponent(r, solved)
		}
	}
	if e.prof != nil {
		e.prof.Lap(obs.PhaseSolve)
	}
	for _, op := range e.ops {
		e.applyOp(op)
	}
	e.maybeCompact()
	if e.prof != nil {
		e.prof.Lap(obs.PhaseResplice)
	}
}

// accumulateStrands folds one solve's stranding transitions into the
// engine counters and metrics.
func (e *Engine) accumulateStrands(d *strandDelta) {
	if d.stranded == 0 && d.resumed == 0 {
		return
	}
	e.stranded += d.stranded
	e.resumed += d.resumed
	e.strandedSec += d.sec
	if e.metrics != nil {
		if e.metrics.Stranded != nil {
			e.metrics.Stranded.Add(int64(d.stranded))
		}
		if e.metrics.Resumed != nil {
			e.metrics.Resumed.Add(int64(d.resumed))
		}
	}
}

// traceComponent reports one component's solved rates to the flow
// tracer. Each plain finite flow gets a rate segment stamped with the
// component size and the batch ordinal; group members and unbounded
// flows are filtered by the tracer itself. The cause code is the
// engine's batchCause — CauseFail/CauseRecover when a fault event
// triggered this solve, CauseSolve otherwise.
func (e *Engine) traceComponent(cr compRange, solved int) {
	flows := e.comp[cr.f0:cr.f1]
	if solved == 0 {
		// Elided single-flow component: line rate, min-capacity
		// bottleneck (the tracer's default for bneck < 0).
		f := flows[0]
		e.ft.Rate(f.ID, e.now, f.Rate, -1, e.batchCause, 1, uint64(e.batches))
		return
	}
	rates := e.ratesArena[cr.f0:cr.f1]
	bn := e.bottlenecks(flows, rates)
	for i, f := range flows {
		e.ft.Rate(f.ID, e.now, rates[i], int(bn[i]), e.batchCause, len(flows), uint64(e.batches))
	}
}

// bottlenecks asks the allocator for each flow's binding link under
// rates, into a reusable scratch; -1 throughout when the allocator
// cannot report.
func (e *Engine) bottlenecks(flows []*fluid.Flow, rates []float64) []int32 {
	if cap(e.bneck) < len(flows) {
		e.bneck = make([]int32, 2*len(flows)+16)
	}
	bn := e.bneck[:len(flows)]
	if e.bneckRep != nil {
		e.bneckRep.Bottlenecks(e.net, flows, rates, bn)
	} else {
		for i := range bn {
			bn[i] = -1
		}
	}
	return bn
}

// allocateGlobal re-solves the full active set (global mode).
func (e *Engine) allocateGlobal() {
	n := len(e.active)
	if cap(e.rates) < n {
		e.rates = make([]float64, 2*n)
	}
	rates := e.rates[:n]
	e.alloc.Allocate(e.net, e.active, rates)
	e.allocs++
	e.solved += n
	e.fullSolve += n
	if n > e.maxComp {
		e.maxComp = n
	}
	e.ops = e.ops[:0]
	var d strandDelta
	e.preApply(e.active, e.activeGroups, rates, &d)
	for _, op := range e.ops {
		e.applyOp(op)
	}
	e.accumulateStrands(&d)
	if e.ft != nil {
		// Global mode has no batch counter; the allocation ordinal
		// stands in. The full active set is trivially link-closed, so
		// bottleneck loads are exact (group members included in load,
		// filtered from tracing by the tracer).
		bn := e.bottlenecks(e.active, rates)
		for i, f := range e.active {
			e.ft.Rate(f.ID, e.now, rates[i], int(bn[i]), e.batchCause, n, uint64(e.allocs))
		}
	}
	e.changed = false
	e.maybeCompact()
	if e.prof != nil {
		e.prof.Lap(obs.PhaseSolve)
	}
	if e.metrics != nil {
		e.metrics.Allocs.Inc()
		e.metrics.SolvedFlows.Add(int64(n))
		e.metrics.ComponentFlows.Observe(float64(n))
	}
}

// materialize realizes every active finite payload's lazy drain at
// time t. Run calls it once when a finite horizon cuts the simulation
// short, so flows left unfinished expose the Remaining they would
// have under eager draining.
func (e *Engine) materialize(t float64) {
	for _, f := range e.active {
		if f.Done() || f.SizeBytes == 0 || f.Group != nil || f.Rate <= 0 {
			continue
		}
		s := &e.fs[f.ID]
		f.Remaining -= (t - s.refT) * f.Rate / 8
		if f.Remaining < 0 {
			f.Remaining = 0
		}
		s.refT = t
	}
	for _, g := range e.activeGroups {
		if g.Done() || g.SizeBytes == 0 {
			continue
		}
		total := g.Rate()
		if total <= 0 {
			continue
		}
		s := &e.gs[g.ID]
		g.Remaining -= (t - s.refT) * total / 8
		if g.Remaining < 0 {
			g.Remaining = 0
		}
		s.refT = t
	}
}

// complete retires every flow and group whose completion event is due
// at time t, in deterministic (time, id) order, then compacts the
// active set in place (preserving admission order). A departing flow
// that shared no link keeps the fast path — its capacity was visible
// to nobody, so the remaining schedule stands; any other departure
// seeds its surviving neighbors for a component re-solve.
func (e *Engine) complete(t float64) {
	slack := 1e-12 * (1 + math.Abs(t))
	done := false
	for {
		ev, ok := e.earliest()
		if !ok || ev.t > t+slack {
			break
		}
		e.heap.pop()
		done = true
		e.retireEvent(ev)
	}
	if !done {
		return
	}
	// Compact the done entries out of the active slices: eagerly in
	// global mode (every re-solve hands e.active to the allocator),
	// lazily — amortized O(1) per completion — in component mode,
	// where nothing reads the slice between compactions.
	if e.global || 2*e.nDone >= len(e.active) {
		e.compactActive()
	}
	if e.global || 2*e.nDoneG >= len(e.activeGroups) {
		e.compactActiveGroups()
	}
	// A drained-empty network has no stale rates to fix; un-latch
	// changed so the next isolated arrival keeps the fast path.
	if e.liveActive() == 0 {
		e.changed = false
	}
}

// retireEvent completes one due flow or group event — stamp finishes,
// move to the finished lists, unlink from the link index, and seed
// the neighbors the departure uncouples — or applies a due fault.
func (e *Engine) retireEvent(ev event) {
	if ev.kind >= evkFail {
		e.applyFault(int(ev.id), ev.kind == evkFail, ev.t)
		return
	}
	if ev.kind == evkFlow {
		f := e.tbl.ByID(int(ev.id))
		e.fs[f.ID].bits &^= evBit
		f.Finish = ev.t
		f.Remaining = 0
		e.finished = append(grow(e.finished), f)
		e.nDone++
		if e.ft != nil {
			e.ft.Complete(f.ID, ev.t)
		}
		switch {
		case e.global:
			e.changed = true
		case !e.unlink(f):
			e.elided++
		}
		return
	}
	g := e.gtbl.ByID(int(ev.id))
	e.gs[g.ID].bits &^= evBit
	g.Finish = ev.t
	g.Remaining = 0
	coupled := false
	for _, m := range g.Members {
		if m.Done() {
			continue
		}
		m.Finish = g.Finish
		e.finished = append(grow(e.finished), m)
		e.nDone++
		if !e.global && e.unlink(m) {
			coupled = true
		}
	}
	e.finishedGroups = append(e.finishedGroups, g)
	e.nDoneG++
	e.gs[g.ID].bits &^= activeBit
	switch {
	case e.global:
		e.changed = true
	case !coupled:
		e.elided++
	}
}

// liveActive is the true active flow count: admitted, not yet
// completed (stale slice entries excluded).
func (e *Engine) liveActive() int { return len(e.active) - e.nDone }

// compactActive removes completed flows from the active slice,
// preserving admission order.
func (e *Engine) compactActive() {
	if e.nDone == 0 {
		return
	}
	kept := e.active[:0]
	for _, f := range e.active {
		if !f.Done() {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = kept
	e.nDone = 0
}

// compactActiveGroups is compactActive for the group slice.
func (e *Engine) compactActiveGroups() {
	if e.nDoneG == 0 {
		return
	}
	keptG := e.activeGroups[:0]
	for _, g := range e.activeGroups {
		if !g.Done() {
			keptG = append(keptG, g)
		}
	}
	for i := len(keptG); i < len(e.activeGroups); i++ {
		e.activeGroups[i] = nil
	}
	e.activeGroups = keptG
	e.nDoneG = 0
}

// Step advances to the next event: admit due arrivals, reallocate the
// touched component(s) if the active set changed, and jump time to the
// earlier of the next arrival and the earliest completion. It reports
// whether any further event can occur; false means the simulation has
// reached a state that will never change again (no pending arrivals
// and no finite flow draining — any remaining active flows are
// unbounded and hold their current rates forever).
func (e *Engine) Step() bool { return e.step(math.Inf(1)) }

// step is Step bounded by a deadline: if the next event lies beyond
// it, time advances (and payloads drain) only to the deadline and no
// event fires.
func (e *Engine) step(deadline float64) bool {
	if e.prof != nil {
		e.prof.Lap(obs.PhaseLoop)
	}
	e.admitDue()
	if e.prof != nil {
		e.prof.Lap(obs.PhaseAdmit)
	}
	// Idle early-exit: nothing active (stranded flows count as active —
	// they are waiting on recovery, not runnable) and nothing pending.
	// Scheduled fault events keep the loop alive so capacity toggles on
	// an idle network still apply.
	if e.liveActive() == 0 && e.next >= len(e.pending) && e.pendingFaults == 0 {
		return false
	}
	if e.global {
		if e.changed && len(e.active) > 0 {
			e.allocateGlobal()
		}
	} else if len(e.touched) > 0 {
		e.reallocate()
	}
	e.batchCause = obs.CauseSolve
	tC := math.Inf(1)
	if ev, ok := e.earliest(); ok {
		tC = ev.t
	}
	tA := math.Inf(1)
	if e.next < len(e.pending) {
		tA = e.pending[e.next].Arrive
	}
	if math.IsInf(tC, 1) && math.IsInf(tA, 1) {
		return false
	}
	t := math.Min(tC, tA)
	if t < e.now {
		t = e.now
	}
	if t > deadline {
		e.materialize(deadline)
		e.now = deadline
		if e.prof != nil {
			e.prof.Lap(obs.PhaseDrain)
		}
		return true
	}
	e.now = t
	e.complete(t)
	e.events++
	if e.prof != nil {
		e.prof.Lap(obs.PhaseComplete)
	}
	if e.metrics != nil {
		e.metrics.Events.Inc()
	}
	if e.prog != nil {
		e.prog.Record(e.now, int64(e.events), e.liveActive(), len(e.finished))
	}
	return true
}

// Run advances events until nothing further can happen or time reaches
// until (seconds; math.Inf(1) runs to completion of every finite
// flow). Flows still draining at until are left unfinished — with
// rates settled and payloads materialized at until, exactly as the
// epoch engine leaves them.
func (e *Engine) Run(until float64) {
	if e.prof != nil {
		e.prof.Arm()
	}
	for e.now < until {
		if !e.step(until) {
			return
		}
	}
	if math.IsInf(until, 1) {
		return
	}
	// An event landing exactly on the horizon exits the loop without
	// the deadline branch having run: settle any seeds that final
	// completion left (so survivors expose their re-solved rates) and
	// materialize the lazy drain.
	if e.global {
		if e.changed && len(e.active) > 0 {
			e.allocateGlobal()
		}
	} else if len(e.touched) > 0 {
		e.reallocate()
	}
	e.batchCause = obs.CauseSolve
	e.materialize(e.now)
	if e.prof != nil {
		e.prof.Lap(obs.PhaseDrain)
	}
}
