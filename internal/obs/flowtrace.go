package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// FlowTracer records sampled per-flow lifecycles from the leap engine:
// arrival, every rate change with its cause (solve batch, component
// size), the bottleneck link binding each rate segment,
// and completion. It follows the package's nil-guarded discipline — a
// nil *FlowTracer costs the engine nothing — and every mutating method
// is called from the engine's event-loop goroutine only; an internal
// mutex makes the HTTP snapshot and export paths safe to call
// concurrently from other goroutines.
//
// While a flow is active its record is always tracked (memory is
// bounded by the engine's active set, and per-link lost-service
// attribution accumulates incrementally with O(path length) state per
// flow). The keep decision happens at completion: a deterministic hash
// of the flow id keeps a SampleRate fraction, and a slowest-K
// reservoir keeps the K worst slowdowns regardless — so the tail that
// tail-latency attribution cares about is always captured.
type FlowTracer struct {
	mu sync.Mutex

	cfg   FlowTraceConfig
	caps  []float64 // link capacities, bound by the engine
	links *LinkStats

	active  []*FlowRecord // dense by flow id; nil = untracked
	nActive int
	free    []*FlowRecord // recycled records (segment/link capacity kept)

	kept []*FlowRecord // hash-sampled completions
	slow []*FlowRecord // min-heap on (slowdown, id): the slowest-K reservoir

	tracked   uint64 // admissions seen
	completed uint64 // completions seen
	dropped   uint64 // completions discarded by the MaxRecords cap

	// nameFn is the link-label function, held atomically so callers can
	// install a topology-aware namer (SetLinkName) after construction
	// while HTTP readers format labels concurrently.
	nameFn atomic.Pointer[func(link int) string]
}

// FlowTraceConfig parameterizes a FlowTracer. The zero value keeps
// only the slowest-K reservoir (no hash sampling).
type FlowTraceConfig struct {
	// SampleRate is the deterministic fraction of completed flows kept
	// by hash of flow id (0 keeps none this way, ≥1 keeps all).
	SampleRate float64
	// SlowestK is the size of the always-keep reservoir of worst
	// slowdowns (default 64; negative disables).
	SlowestK int
	// MaxRecords caps the hash-sampled kept records (default 1<<17);
	// completions beyond it are dropped (counted, never the reservoir).
	MaxRecords int
	// MaxSegs caps the stored rate segments per record (default 512).
	// Attribution stays exact past the cap — per-link lost service
	// accumulates incrementally — but segment detail is truncated and
	// counted in FlowRecord.Truncated.
	MaxSegs int
	// LinkName labels link ids in exports and reports (optional).
	LinkName func(link int) string
}

// NewFlowTracer builds a tracer; the engine binds link capacities at
// construction via Bind.
func NewFlowTracer(cfg FlowTraceConfig) *FlowTracer {
	if cfg.SlowestK == 0 {
		cfg.SlowestK = 64
	}
	if cfg.SlowestK < 0 {
		cfg.SlowestK = 0
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 1 << 17
	}
	if cfg.MaxSegs <= 0 {
		cfg.MaxSegs = 512
	}
	t := &FlowTracer{cfg: cfg}
	t.SetLinkName(cfg.LinkName)
	return t
}

// SetLinkName installs (or replaces) the link-label function used in
// exports and reports — typically a topology's LinkName once the
// network is built. Safe to call while snapshots are being served.
func (t *FlowTracer) SetLinkName(fn func(link int) string) {
	if fn == nil {
		return
	}
	t.nameFn.Store(&fn)
}

// linkName returns the configured label for link l, "" when no namer
// is installed or l is negative.
func (t *FlowTracer) linkName(l int) string {
	if l < 0 {
		return ""
	}
	if p := t.nameFn.Load(); p != nil {
		return (*p)(l)
	}
	return ""
}

// Reset clears all per-run state — active records, kept/reservoir
// completions, counters, link statistics, and the capacity binding —
// keeping the sampling configuration, so one tracer (and the debug
// endpoints holding it) can serve several engine runs in sequence.
func (t *FlowTracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.caps = nil
	t.links = nil
	t.active = nil
	t.nActive = 0
	t.free = nil
	t.kept = nil
	t.slow = nil
	t.tracked, t.completed, t.dropped = 0, 0, 0
}

// Causes of a rate segment.
const (
	// CauseAdmit marks a rate set on the admission fast path (isolated
	// flow, no solver involved).
	CauseAdmit uint8 = iota
	// CauseSolve marks a rate set by a component (or global) solve.
	CauseSolve
	// CauseFail marks a rate set by the re-solve a link failure
	// triggered — including the zero rate of a flow the failure
	// stranded.
	CauseFail
	// CauseRecover marks a rate set by the re-solve a link recovery
	// triggered — including the positive rate that resumes a stranded
	// flow.
	CauseRecover
)

func causeName(c uint8) string {
	switch c {
	case CauseAdmit:
		return "admit"
	case CauseFail:
		return "fail"
	case CauseRecover:
		return "recover"
	}
	return "solve"
}

// FlowSeg is one constant-rate segment of a traced flow's lifetime:
// the flow ran at Rate over [T, next segment's T) — the last segment
// ends at completion — bottlenecked by link Bneck.
type FlowSeg struct {
	T     float64 // segment start, virtual seconds
	Rate  float64 // bits/second
	Bneck int32   // bottleneck link id (min-slack on the flow's path)
	Cause uint8   // CauseAdmit, CauseSolve, CauseFail, or CauseRecover
	Comp  int32   // flows in the component solved (1 on the fast path)
	Batch uint32  // solve-batch ordinal
}

// FlowRecord is one traced flow's lifecycle. All fields are final
// after completion; LostLinks/LostSecs are the flow's slowdown
// attribution — parallel slices mapping each distinct bottleneck link
// to the service time lost to it, summing to FCT − IdealFCT.
type FlowRecord struct {
	ID int
	// Seq is the tracer's admission ordinal. Engine flow ids recycle
	// under table-backed churn (fluid.FlowTable + leap ReleaseFinished:
	// the id space is bounded by the peak live set), so two records in
	// one trace can share an ID; Seq is the identity that never does.
	Seq       uint64
	SizeBytes int64
	Arrive    float64
	// LineRate is the flow's ideal rate: the minimum capacity along
	// its path. IdealFCT = SizeBytes·8 / LineRate.
	LineRate float64
	// LineBneck is the path's minimum-capacity link — the bottleneck
	// attributed to segments the solver didn't bind (fast-path admits
	// and elided single-flow components run at LineRate).
	LineBneck int32
	Finish    float64
	Finished  bool
	// Sampled is true when the record was kept by the deterministic
	// hash sample (false: kept by the slowest-K reservoir, or still
	// active).
	Sampled bool
	// Truncated counts rate segments dropped beyond the MaxSegs cap;
	// attribution is exact regardless.
	Truncated int
	Segs      []FlowSeg
	// LostLinks/LostSecs attribute lost service ∫(LineRate−rate)dt /
	// LineRate to each distinct bottleneck link.
	LostLinks []int32
	LostSecs  []float64

	links     []int32 // the flow's path, for link accounting
	lastT     float64
	lastRate  float64
	lastBneck int32
	heapPos   int // index in the slowest-K heap, -1 otherwise
}

// FCT returns the flow's completion time minus arrival.
func (r *FlowRecord) FCT() float64 { return r.Finish - r.Arrive }

// IdealFCT returns the line-rate completion time SizeBytes·8/LineRate.
func (r *FlowRecord) IdealFCT() float64 {
	return float64(r.SizeBytes) * 8 / r.LineRate
}

// Slowdown returns FCT / IdealFCT.
func (r *FlowRecord) Slowdown() float64 { return r.FCT() / r.IdealFCT() }

// TotalLost returns the summed per-link lost service, which equals
// FCT − IdealFCT for a completed record.
func (r *FlowRecord) TotalLost() float64 {
	var s float64
	for _, v := range r.LostSecs {
		s += v
	}
	return s
}

// Bind gives the tracer the network's link capacities; the engine
// calls it once at construction. Capacities determine each flow's
// line rate and min-capacity bottleneck, and size the per-link stats.
func (t *FlowTracer) Bind(caps []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.caps != nil {
		return // one engine per tracer; keep the first binding
	}
	t.caps = caps
	t.links = newLinkStats(caps)
}

// Links returns the per-link utilization/active-flow statistics
// (nil before Bind).
func (t *FlowTracer) Links() *LinkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.links
}

// Admit starts tracing flow id: size bytes, arriving at arrive,
// traversing links. The engine calls it for plain finite flows only
// (group members and unbounded flows are not traced).
func (t *FlowTracer) Admit(id int, sizeBytes int64, arrive float64, links []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.caps == nil || len(links) == 0 || sizeBytes <= 0 {
		return
	}
	lineRate, lineBneck := math.Inf(1), int32(-1)
	for _, l := range links {
		if l < 0 || l >= len(t.caps) {
			return // foreign network (tracer bound elsewhere): skip
		}
		if c := t.caps[l]; c < lineRate {
			lineRate, lineBneck = c, int32(l)
		}
	}
	if lineRate <= 0 {
		// Admitted straight onto a dead (failed) link: no finite ideal
		// FCT exists to attribute lost service against, so the flow is
		// not traced. The engine still counts it in Stats.Stranded, and
		// flows admitted while their path was healthy keep exact
		// attribution through any later failure (stranded time accrues
		// in full against the failed bottleneck).
		return
	}
	for id >= len(t.active) {
		t.active = append(t.active, nil)
	}
	var r *FlowRecord
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = &FlowRecord{}
	}
	for _, l := range links {
		r.links = append(r.links, int32(l))
	}
	r.ID = id
	r.Seq = uint64(t.tracked)
	r.SizeBytes = sizeBytes
	r.Arrive = arrive
	r.LineRate = lineRate
	r.LineBneck = lineBneck
	r.Finish = math.NaN()
	r.Finished = false
	r.Sampled = false
	r.Truncated = 0
	r.lastT = arrive
	r.lastRate = 0
	r.lastBneck = lineBneck
	r.heapPos = -1
	// Seed a zero-rate segment at arrival so segments tile
	// [Arrive, Finish] by construction; a same-instant first solve
	// overwrites it in place.
	r.Segs = append(r.Segs, FlowSeg{T: arrive, Bneck: lineBneck, Cause: CauseAdmit})
	t.active[id] = r
	t.nActive++
	t.tracked++
	t.links.addFlow(r.links, arrive)
}

// Rate records a rate change for flow id at virtual time now: the new
// rate, the bottleneck link the solver reported (negative: attribute
// to the path's min-capacity link), the cause, the solved component's
// flow count, and the solve batch ordinal. Unchanged
// (rate, bottleneck) pairs coalesce into the open segment; untracked
// ids are ignored, so callers need not re-check the tracing scope.
func (t *FlowTracer) Rate(id int, now, rate float64, bneck int, cause uint8, comp int, batch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	if r == nil {
		return
	}
	b := int32(bneck)
	if b < 0 {
		b = r.LineBneck
	}
	if (len(r.Segs) > 0 || r.Truncated > 0) && rate == r.lastRate && b == r.lastBneck {
		return // the open segment continues
	}
	// Close the open segment [lastT, now): attribute its lost service.
	r.account(now)
	t.links.rateDelta(r.links, rate-r.lastRate, now)
	seg := FlowSeg{T: now, Rate: rate, Bneck: b, Cause: cause,
		Comp: int32(comp), Batch: uint32(batch)}
	switch n := len(r.Segs); {
	case r.Truncated > 0 || n >= t.cfg.MaxSegs:
		r.Truncated++
	case n > 0 && r.Segs[n-1].T == now:
		r.Segs[n-1] = seg // zero-length segment: overwrite in place
	default:
		r.Segs = append(r.Segs, seg)
	}
	r.lastT, r.lastRate, r.lastBneck = now, rate, b
}

// account closes the record's open segment at time now, attributing
// (LineRate − rate)·Δt / LineRate seconds of lost service to the
// segment's bottleneck link.
func (r *FlowRecord) account(now float64) {
	dt := now - r.lastT
	if dt <= 0 {
		return
	}
	lost := (r.LineRate - r.lastRate) * dt / r.LineRate
	if lost == 0 {
		return
	}
	for i, l := range r.LostLinks {
		if l == r.lastBneck {
			r.LostSecs[i] += lost
			return
		}
	}
	r.LostLinks = append(r.LostLinks, r.lastBneck)
	r.LostSecs = append(r.LostSecs, lost)
}

// Complete finalizes flow id at virtual time finish and decides
// whether the record is kept: hash-sampled, reservoir-kept, or
// recycled. Untracked ids are ignored.
func (t *FlowTracer) Complete(id int, finish float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	if r == nil {
		return
	}
	r.account(finish)
	r.Finish = finish
	r.Finished = true
	t.links.removeFlow(r.links, r.lastRate, finish)
	t.active[id] = nil
	t.nActive--
	t.completed++

	if sampleKeep(uint64(id), t.cfg.SampleRate) {
		r.Sampled = true
		if len(t.kept) < t.cfg.MaxRecords {
			t.kept = append(t.kept, r)
		} else {
			t.dropped++
			t.recycle(r)
		}
		return
	}
	if t.cfg.SlowestK > 0 {
		if len(t.slow) < t.cfg.SlowestK {
			t.heapPush(r)
			return
		}
		if slowLess(t.slow[0], r) {
			t.recycle(t.heapReplaceMin(r))
			return
		}
	}
	t.recycle(r)
}

func (t *FlowTracer) rec(id int) *FlowRecord {
	if id < 0 || id >= len(t.active) {
		return nil
	}
	return t.active[id]
}

func (t *FlowTracer) recycle(r *FlowRecord) {
	r.Segs = r.Segs[:0]
	r.LostLinks = r.LostLinks[:0]
	r.LostSecs = r.LostSecs[:0]
	r.links = r.links[:0]
	t.free = append(t.free, r)
}

// sampleKeep is the deterministic hash sample: splitmix64 of the flow
// id against the rate, so the same flows are kept run over run.
func sampleKeep(id uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		// Exactly all: the float compare below can drop hashes that
		// round up to 2⁶⁴.
		return true
	}
	return float64(splitmix64(id)) < rate*18446744073709551616.0 // rate·2⁶⁴
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slowLess orders records by (slowdown, id, seq) ascending — the heap
// minimum is the least-slow reservoir entry, evicted first. Seq breaks
// the tie two tenants of one recycled engine id would otherwise leave.
func slowLess(a, b *FlowRecord) bool {
	sa, sb := a.Slowdown(), b.Slowdown()
	if sa != sb {
		return sa < sb
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Seq < b.Seq
}

func (t *FlowTracer) heapPush(r *FlowRecord) {
	r.heapPos = len(t.slow)
	t.slow = append(t.slow, r)
	t.siftUp(r.heapPos)
}

func (t *FlowTracer) heapReplaceMin(r *FlowRecord) (evicted *FlowRecord) {
	evicted = t.slow[0]
	evicted.heapPos = -1
	r.heapPos = 0
	t.slow[0] = r
	t.siftDown(0)
	return evicted
}

func (t *FlowTracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !slowLess(t.slow[i], t.slow[p]) {
			break
		}
		t.heapSwap(i, p)
		i = p
	}
}

func (t *FlowTracer) siftDown(i int) {
	n := len(t.slow)
	for {
		m := i
		if l := 2*i + 1; l < n && slowLess(t.slow[l], t.slow[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && slowLess(t.slow[r], t.slow[m]) {
			m = r
		}
		if m == i {
			return
		}
		t.heapSwap(i, m)
		i = m
	}
}

func (t *FlowTracer) heapSwap(i, j int) {
	t.slow[i], t.slow[j] = t.slow[j], t.slow[i]
	t.slow[i].heapPos = i
	t.slow[j].heapPos = j
}

// Records returns the kept completed records (hash sample ∪ slowest-K
// reservoir) sorted by slowdown descending. The records themselves are
// immutable after completion; the returned slice is the caller's.
func (t *FlowTracer) Records() []*FlowRecord {
	t.mu.Lock()
	out := make([]*FlowRecord, 0, len(t.kept)+len(t.slow))
	out = append(out, t.kept...)
	out = append(out, t.slow...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return slowLess(out[j], out[i]) })
	return out
}

// FlowTraceSummary is the header of the /flows endpoint and JSONL
// export: tracing totals plus sampling configuration.
type FlowTraceSummary struct {
	Tracked    uint64  `json:"tracked"`
	Active     int     `json:"active"`
	Completed  uint64  `json:"completed"`
	Kept       int     `json:"kept"`
	Reservoir  int     `json:"reservoir"`
	Dropped    uint64  `json:"dropped"`
	SampleRate float64 `json:"sample_rate"`
	SlowestK   int     `json:"slowest_k"`
}

// Summary returns the tracer's totals.
func (t *FlowTracer) Summary() FlowTraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FlowTraceSummary{
		Tracked:    t.tracked,
		Active:     t.nActive,
		Completed:  t.completed,
		Kept:       len(t.kept),
		Reservoir:  len(t.slow),
		Dropped:    t.dropped,
		SampleRate: t.cfg.SampleRate,
		SlowestK:   t.cfg.SlowestK,
	}
}

// LinkLoss is one link's share of aggregated lost service.
type LinkLoss struct {
	Link        int     `json:"link"`
	Name        string  `json:"name,omitempty"`
	LostSeconds float64 `json:"lost_seconds"`
	// Share is this link's fraction of the aggregate's total lost
	// service.
	Share float64 `json:"share"`
}

// SlowdownAttribution aggregates per-link lost service across the
// slowest frac (0 < frac ≤ 1) of kept completed records — e.g. 0.01
// attributes the p99 tail. The slowest-K reservoir guarantees the true
// global tail is present while the cut stays within K flows. Returns
// the losses sorted descending and the number of records aggregated.
func (t *FlowTracer) SlowdownAttribution(frac float64) ([]LinkLoss, int) {
	recs := t.Records()
	if len(recs) == 0 {
		return nil, 0
	}
	n := len(recs)
	if frac > 0 && frac < 1 {
		if n = int(math.Ceil(frac * float64(len(recs)))); n < 1 {
			n = 1
		}
		if n > len(recs) {
			n = len(recs)
		}
	}
	return t.attribute(recs[:n]), n
}

func (t *FlowTracer) attribute(recs []*FlowRecord) []LinkLoss {
	byLink := map[int32]float64{}
	var total float64
	for _, r := range recs {
		for i, l := range r.LostLinks {
			byLink[l] += r.LostSecs[i]
			total += r.LostSecs[i]
		}
	}
	out := make([]LinkLoss, 0, len(byLink))
	for l, s := range byLink {
		ll := LinkLoss{Link: int(l), LostSeconds: s, Name: t.linkName(int(l))}
		if total > 0 {
			ll.Share = s / total
		}
		out = append(out, ll)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LostSeconds != out[j].LostSeconds {
			return out[i].LostSeconds > out[j].LostSeconds
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// flowJSON is the JSONL "flow" line (and /flows entry).
type flowJSON struct {
	Type string `json:"type"`
	ID   int    `json:"id"`
	// Seq disambiguates records whose engine id was recycled (see
	// FlowRecord.Seq).
	Seq       uint64     `json:"seq"`
	SizeBytes int64      `json:"size_bytes"`
	Arrive    float64    `json:"arrive"`
	Finish    float64    `json:"finish,omitempty"`
	Finished  bool       `json:"finished"`
	FCT       float64    `json:"fct,omitempty"`
	IdealFCT  float64    `json:"ideal_fct"`
	Slowdown  float64    `json:"slowdown,omitempty"`
	Sampled   bool       `json:"sampled"`
	Truncated int        `json:"truncated_segs,omitempty"`
	Lost      []LinkLoss `json:"lost,omitempty"`
	Segs      []segJSON  `json:"segs"`
}

type segJSON struct {
	T     float64 `json:"t"`
	Rate  float64 `json:"rate"`
	Bneck int32   `json:"bneck"`
	Name  string  `json:"bneck_name,omitempty"`
	Cause string  `json:"cause"`
	Comp  int32   `json:"comp"`
	Batch uint32  `json:"batch"`
}

func (t *FlowTracer) flowJSON(r *FlowRecord) flowJSON {
	j := flowJSON{
		Type:      "flow",
		ID:        r.ID,
		Seq:       r.Seq,
		SizeBytes: r.SizeBytes,
		Arrive:    r.Arrive,
		Finished:  r.Finished,
		IdealFCT:  r.IdealFCT(),
		Sampled:   r.Sampled,
		Truncated: r.Truncated,
		Segs:      make([]segJSON, len(r.Segs)),
	}
	if r.Finished {
		j.Finish = r.Finish
		j.FCT = r.FCT()
		j.Slowdown = r.Slowdown()
	}
	var total float64
	for _, s := range r.LostSecs {
		total += s
	}
	for i, l := range r.LostLinks {
		ll := LinkLoss{Link: int(l), LostSeconds: r.LostSecs[i], Name: t.linkName(int(l))}
		if total > 0 {
			ll.Share = r.LostSecs[i] / total
		}
		j.Lost = append(j.Lost, ll)
	}
	for i, s := range r.Segs {
		j.Segs[i] = segJSON{T: s.T, Rate: s.Rate, Bneck: s.Bneck,
			Name:  t.linkName(int(s.Bneck)),
			Cause: causeName(s.Cause), Comp: s.Comp, Batch: s.Batch}
	}
	return j
}

// WriteJSONL streams the trace as JSON lines: one {"type":"summary"}
// header, kept flow records by slowdown descending, still-active
// (unfinished) flows, then per-link {"type":"link"} statistics.
func (t *FlowTracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Type string `json:"type"`
		FlowTraceSummary
	}{"summary", t.Summary()}); err != nil {
		return err
	}
	for _, r := range t.Records() {
		if err := enc.Encode(t.flowJSON(r)); err != nil {
			return err
		}
	}
	// Unfinished flows and link stats, snapshotted under the lock
	// (both still mutable while the engine runs).
	t.mu.Lock()
	var live []flowJSON
	for _, r := range t.active {
		if r != nil {
			live = append(live, t.flowJSON(r))
		}
	}
	linkSnaps := t.links.Snapshot()
	t.mu.Unlock()
	for _, j := range live {
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	for _, ls := range linkSnaps {
		j := linkJSON{Type: "link", Name: t.linkName(ls.Link), LinkSnapshot: ls}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

// LinksSnapshot returns the per-link statistics under the tracer's
// lock — the safe accessor for the /links endpoint while a run is
// live. Labels are attached when a LinkName namer is configured.
func (t *FlowTracer) LinksSnapshot() []LinkSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.links.Snapshot()
}

type linkJSON struct {
	Type string `json:"type"`
	Name string `json:"name,omitempty"`
	LinkSnapshot
}

// FlowsSnapshot is the /flows endpoint payload: totals, the tail
// attribution, and the top slow flows.
type FlowsSnapshot struct {
	FlowTraceSummary
	// TailFrac is the slowest fraction aggregated in Attribution.
	TailFrac    float64    `json:"tail_frac"`
	TailFlows   int        `json:"tail_flows"`
	Attribution []LinkLoss `json:"attribution"`
	Flows       []flowJSON `json:"flows"`
}

// FlowsSnapshotTop builds the /flows payload with the slowest topN
// kept flows and a tail attribution over the slowest frac.
func (t *FlowTracer) FlowsSnapshotTop(topN int, frac float64) FlowsSnapshot {
	s := FlowsSnapshot{FlowTraceSummary: t.Summary(), TailFrac: frac}
	s.Attribution, s.TailFlows = t.SlowdownAttribution(frac)
	if s.Attribution == nil {
		s.Attribution = []LinkLoss{}
	}
	recs := t.Records()
	if len(recs) > topN {
		recs = recs[:topN]
	}
	s.Flows = make([]flowJSON, len(recs))
	for i, r := range recs {
		s.Flows[i] = t.flowJSON(r)
	}
	return s
}

// LinkNameOrIndex formats a link label: the bound namer's label when
// present, "link <i>" otherwise, "-" for negative ids.
func (t *FlowTracer) LinkNameOrIndex(l int) string {
	if l < 0 {
		return "-"
	}
	if name := t.linkName(l); name != "" {
		return name
	}
	return fmt.Sprintf("link %d", l)
}
