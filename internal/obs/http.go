package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// Progress is a lock-free live view of a running engine: the event
// loop stores a few atomics per event, the /progress endpoint reads
// them from another goroutine. A nil *Progress is a no-op.
type Progress struct {
	startWall atomic.Int64  // ns, set on first Record
	lastWall  atomic.Int64  // ns of the latest Record
	simBits   atomic.Uint64 // virtual time in seconds, float bits
	events    atomic.Int64
	active    atomic.Int64
	finished  atomic.Int64
	batches   atomic.Int64
	batchW    atomic.Int64 // latest batch's component count
}

// Record publishes the engine's current position: virtual time
// (seconds), total events processed, live flow count, and finished
// flow count.
func (p *Progress) Record(simSeconds float64, events int64, active, finished int) {
	if p == nil {
		return
	}
	wall := Now()
	p.startWall.CompareAndSwap(0, wall)
	p.lastWall.Store(wall)
	p.simBits.Store(math.Float64bits(simSeconds))
	p.events.Store(events)
	p.active.Store(int64(active))
	p.finished.Store(int64(finished))
}

// RecordBatch publishes one reallocation batch's component count.
func (p *Progress) RecordBatch(components int) {
	if p == nil {
		return
	}
	p.batches.Add(1)
	p.batchW.Store(int64(components))
}

// ProgressSnapshot is the JSON payload of the /progress endpoint.
type ProgressSnapshot struct {
	// SimSeconds is the engine's virtual time in seconds.
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is wall time since the first recorded event.
	WallSeconds float64 `json:"wall_seconds"`
	Events      int64   `json:"events"`
	// EventsPerSec is the smoothed event rate: measured between
	// successive snapshots when possible, the run-wide average
	// otherwise.
	EventsPerSec float64 `json:"events_per_sec"`
	ActiveFlows  int64   `json:"active_flows"`
	Finished     int64   `json:"finished_flows"`
	Batches      int64   `json:"batches"`
	// BatchComponents is the latest reallocation batch's width.
	BatchComponents int64 `json:"batch_components"`
}

// Snapshot captures the current progress with the run-wide average
// event rate.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		SimSeconds:      math.Float64frombits(p.simBits.Load()),
		Events:          p.events.Load(),
		ActiveFlows:     p.active.Load(),
		Finished:        p.finished.Load(),
		Batches:         p.batches.Load(),
		BatchComponents: p.batchW.Load(),
	}
	start := p.startWall.Load()
	if start != 0 {
		s.WallSeconds = float64(p.lastWall.Load()-start) / 1e9
		if s.WallSeconds > 0 {
			s.EventsPerSec = float64(s.Events) / s.WallSeconds
		}
	}
	return s
}

// Handler builds the debug mux: net/http/pprof under /debug/pprof/,
// expvar under /debug/vars, the registry snapshot at /metrics, the
// live engine position at /progress, and — when a FlowTracer is
// attached — the slow-flow attribution at /flows and per-link
// utilization at /links. Any argument may be nil; the endpoints then
// serve empty documents.
func Handler(reg *Registry, prog *Progress, ft *FlowTracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if reg == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		reg.WriteJSON(w)
	})

	// /progress smooths events/s between successive scrapes; the first
	// scrape (and scrapes after a stall) fall back to the run average.
	var mu sync.Mutex
	var prevWall, prevEvents int64
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := prog.Snapshot()
		wall := Now()
		mu.Lock()
		if prevWall != 0 && wall > prevWall && s.Events >= prevEvents {
			rate := float64(s.Events-prevEvents) / (float64(wall-prevWall) / 1e9)
			if rate > 0 {
				s.EventsPerSec = rate
			}
		}
		prevWall, prevEvents = wall, s.Events
		mu.Unlock()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s)
	})

	// /flows: slowest kept flows with per-link attribution; /links:
	// per-link utilization/active-flow series. Both snapshot under the
	// tracer's lock, safe against the live engine.
	mux.HandleFunc("/flows", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if ft == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ft.FlowsSnapshotTop(flowsEndpointTop, flowsEndpointFrac))
	})
	mux.HandleFunc("/links", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if ft == nil {
			fmt.Fprintln(w, "[]")
			return
		}
		snaps := ft.LinksSnapshot()
		out := make([]linkJSON, len(snaps))
		for i, ls := range snaps {
			out[i] = linkJSON{Type: "link", Name: ft.LinkNameOrIndex(ls.Link), LinkSnapshot: ls}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "numfabric debug endpoint\n\n"+
			"  /metrics      registry snapshot (JSON)\n"+
			"  /progress     live engine position (JSON)\n"+
			"  /flows        slow-flow attribution (JSON)\n"+
			"  /links        per-link utilization (JSON)\n"+
			"  /debug/pprof/ runtime profiles\n"+
			"  /debug/vars   expvar\n")
	})
	return mux
}

// flowsEndpointTop bounds the flows listed by /flows;
// flowsEndpointFrac is the slowest fraction its attribution covers.
const (
	flowsEndpointTop  = 50
	flowsEndpointFrac = 0.01
)

// Serve starts the debug endpoint on addr (e.g. "localhost:6060") and
// returns the bound listener so callers can report the actual port
// (addr may use :0) and close it on shutdown. The server goroutine
// exits when the listener closes.
func Serve(addr string, reg *Registry, prog *Progress, ft *FlowTracer) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg, prog, ft)}
	go srv.Serve(ln)
	return ln, nil
}
