// Package obs is the engine-wide observability layer: a phase-timing
// profiler for the event loops, a registry of counters/gauges/
// histograms with lock-cheap hot-path updates, Chrome-trace timeline
// export for the event loop's batches and solves, a live progress
// snapshot, and a debug HTTP endpoint (net/http/pprof, expvar,
// /metrics, /progress) for long-running processes.
//
// Everything here is designed to cost nothing when disabled: the
// engines hold nil hook pointers by default and guard every
// instrumentation point with a nil check, so the hot loops stay
// allocation-free and within measurement noise of their
// pre-instrumentation throughput (pinned by the leap engine's
// allocation-guard test and BenchmarkLeapFCT). When enabled, updates
// are single atomic operations or one monotonic clock read per phase
// boundary — cheap enough to leave on for the leapfct experiment.
package obs

import "time"

// epoch anchors the package's monotonic clock: every timestamp —
// profiler laps, trace spans, progress wall times — is nanoseconds
// since process start, so spans from successive runs in one process
// land on one timeline.
var epoch = time.Now()

// Now returns the monotonic clock reading in nanoseconds since
// process start.
func Now() int64 { return int64(time.Since(epoch)) }

// Hooks bundles the observability hooks an engine accepts. Every
// field is optional; a nil field disables that instrument with zero
// hot-path cost.
type Hooks struct {
	// Profiler accumulates wall time per event-loop phase.
	Profiler *PhaseProfiler
	// Tracer records timeline spans (component solves, batches) for
	// Chrome-trace export.
	Tracer *Tracer
	// Progress receives a lock-free live snapshot (virtual time,
	// events, active flows) every event, for the /progress endpoint.
	Progress *Progress
	// Metrics receives per-batch registry updates (event/alloc
	// counters, batch-width and component-size histograms).
	Metrics *EngineMetrics
	// FlowTrace records sampled per-flow lifecycles (rate segments,
	// bottleneck links, slowdown attribution) and per-link
	// utilization series.
	FlowTrace *FlowTracer
}

// Enabled reports whether any hook is attached.
func (h Hooks) Enabled() bool {
	return h.Profiler != nil || h.Tracer != nil || h.Progress != nil ||
		h.Metrics != nil || h.FlowTrace != nil
}
