package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with atomic hot-path
// updates. The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric with atomic updates. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of counters, gauges, and histograms
// with a JSON snapshot export — the data model behind the /metrics
// endpoint. Lookup/creation takes a mutex; the returned instruments
// update lock-free, so hot paths hold a pointer and never touch the
// registry again.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a derived gauge sampled at snapshot time. fn
// must be safe to call from any goroutine (read atomics, not engine
// internals).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value. Counters and
// histograms are read with atomic loads, so a snapshot taken during
// concurrent updates is internally consistent per instrument (not
// across instruments, which live metrics never need).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON — the /metrics
// payload.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// EngineMetrics is the bundle of registry instruments an engine
// updates: totals as counters and the per-batch shape as histograms.
// Updates happen on the engine's event loop (per batch, not per
// solve), so the hot parallel section never touches them.
type EngineMetrics struct {
	// Events counts processed events (arrival instants and completion
	// batches).
	Events *Counter
	// Allocs counts allocator solves; SolvedFlows the flows they
	// covered.
	Allocs      *Counter
	SolvedFlows *Counter
	// BatchComponents observes each reallocation batch's disjoint
	// component count.
	BatchComponents *Histogram
	// ComponentFlows observes each solved component's flow count.
	ComponentFlows *Histogram
	// Faults counts applied fault events (link failures + recoveries);
	// Stranded and Resumed count flows driven to rate zero by dead
	// capacity and brought back by recovery (see leap.Stats).
	Faults   *Counter
	Stranded *Counter
	Resumed  *Counter
}

// NewEngineMetrics creates (or reuses) the engine instruments in r
// under the given name prefix (e.g. "leap").
func NewEngineMetrics(r *Registry, prefix string) *EngineMetrics {
	return &EngineMetrics{
		Events:          r.Counter(prefix + ".events"),
		Allocs:          r.Counter(prefix + ".allocs"),
		SolvedFlows:     r.Counter(prefix + ".solved_flows"),
		BatchComponents: r.Histogram(prefix + ".batch_components"),
		ComponentFlows:  r.Histogram(prefix + ".component_flows"),

		Faults:   r.Counter(prefix + ".faults"),
		Stranded: r.Counter(prefix + ".stranded"),
		Resumed:  r.Counter(prefix + ".resumed"),
	}
}
