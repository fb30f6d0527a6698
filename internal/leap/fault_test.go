package leap

import (
	"math"
	"os"
	"strconv"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// faultSeeds returns how many dense-schedule seeds the fault property
// tests sweep: 3, or the positive integer in LEAP_TEST_FAULTS (CI's
// race job sets 1 to keep the race-detector run short).
func faultSeeds(t *testing.T) uint64 {
	s := os.Getenv("LEAP_TEST_FAULTS")
	if s == "" {
		return 3
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("LEAP_TEST_FAULTS=%q is not an integer", s)
	}
	if n <= 0 {
		return 3
	}
	return uint64(n)
}

// assertSameFinishBits fails unless the two runs left every flow and
// group at bitwise-equal finish times — including NaN for flows both
// runs left stranded forever, which plain == would reject.
func assertSameFinishBits(t *testing.T, label string, seed uint64,
	af []*fluid.Flow, ag []*fluid.Group, bf []*fluid.Flow, bg []*fluid.Group) {
	t.Helper()
	for i := range af {
		if math.Float64bits(af[i].Finish) != math.Float64bits(bf[i].Finish) {
			t.Fatalf("%s seed %d flow %d: finish %v != %v",
				label, seed, af[i].ID, bf[i].Finish, af[i].Finish)
		}
	}
	for i := range ag {
		if math.Float64bits(ag[i].Finish) != math.Float64bits(bg[i].Finish) {
			t.Fatalf("%s seed %d group %d: finish %v != %v",
				label, seed, ag[i].ID, bg[i].Finish, ag[i].Finish)
		}
	}
}

// runDeadDense plays the dense random schedule with links dead killed —
// either statically (capacity zero from construction, no fault events)
// or via FailLink at t=0 with no recovery — and returns the engine,
// flows, and groups after running to completion.
func runDeadDense(cfg Config, seed uint64, dead []int, static bool) (*Engine, []*fluid.Flow, []*fluid.Group) {
	caps := denseCaps()
	if static {
		for _, l := range dead {
			caps[l] = 0
		}
	}
	e := NewEngine(fluid.NewNetwork(caps), cfg)
	if !static {
		for _, l := range dead {
			e.FailLink(l, 0)
		}
	}
	fs, gs := buildDenseSchedule(e, seed)
	e.Run(math.Inf(1))
	return e, fs, gs
}

// TestFaultMatchesStaticDegraded is the fault-injection property test:
// a failure at t=0 that never recovers must be indistinguishable from
// having built the topology without the link — every flow and group
// finishes (or stays stranded) at bitwise-identical times to a fresh
// run on the statically degraded capacity vector, component-local and
// Global alike. Any disagreement is a fault-path bug (a missed
// re-solve, a wrong retirement order, a stranded flow leaking rate),
// not float noise.
func TestFaultMatchesStaticDegraded(t *testing.T) {
	dead := []int{0, 5} // one link in each bank of the dense schedule
	cfgs := []Config{{}, {Global: true}}
	for seed := uint64(1); seed <= faultSeeds(t); seed++ {
		se, sf, sg := runDeadDense(Config{}, seed, dead, true)
		for _, cfg := range cfgs {
			fe, ff, fg := runDeadDense(cfg, seed, dead, false)
			assertSameFinishBits(t, "fault-vs-static", seed, sf, sg, ff, fg)
			ss, fs := se.Stats(), fe.Stats()
			if fs.Stranded != ss.Stranded || fs.Resumed != 0 {
				t.Errorf("seed %d cfg %+v: stranded %d/%d resumed %d, want static %d/0",
					seed, cfg, fs.Stranded, ss.Stranded, fs.Resumed, ss.Stranded)
			}
			if fs.Faults != len(dead) || fs.LinksDown != len(dead) {
				t.Errorf("seed %d cfg %+v: faults %d linksDown %d, want %d/%d",
					seed, cfg, fs.Faults, fs.LinksDown, len(dead), len(dead))
			}
			if ss.Faults != 0 || ss.LinksDown != 0 {
				t.Errorf("seed %d: static run recorded faults: %+v", seed, ss)
			}
		}
	}
}

// TestStrandedFlowResumesExactly pins the strand/resume arithmetic on
// one flow: a mid-flow failure freezes the payload at rate zero, the
// recovery resumes it, and the finish time is the ideal FCT plus
// exactly the downtime. The degradation accounting must match the
// schedule analytically: stranded time equals the downtime, capacity
// lost equals capacity × downtime.
func TestStrandedFlowResumesExactly(t *testing.T) {
	const cap0 = 10e9
	const failT, recoverT = 200e-6, 500e-6
	e := NewEngine(fluid.NewNetwork([]float64{cap0}), Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.FailLink(0, failT)
	e.RecoverLink(0, recoverT)
	e.Run(math.Inf(1))

	ideal := float64(1<<20) * 8 / cap0
	want := ideal + (recoverT - failT)
	if !f.Done() {
		t.Fatalf("flow never resumed: finish %v remaining %v", f.Finish, f.Remaining)
	}
	if math.Abs(f.Finish-want) > 1e-12 {
		t.Errorf("finish %v, want ideal+downtime %v", f.Finish, want)
	}
	s := e.Stats()
	if s.Faults != 2 || s.Stranded != 1 || s.Resumed != 1 || s.LinksDown != 0 {
		t.Errorf("fault stats: %+v, want 2 faults, 1 stranded, 1 resumed, 0 down", s)
	}
	if got, want := s.StrandedSec, recoverT-failT; math.Abs(got-want) > 1e-15 {
		t.Errorf("StrandedSec %v, want downtime %v", got, want)
	}
	if got, want := s.CapacityLostBitSec, cap0*(recoverT-failT); math.Abs(got-want) > 1 {
		t.Errorf("CapacityLostBitSec %v, want cap·downtime %v", got, want)
	}
}

// TestNestedAndSpuriousFaults: recovering a healthy link is a counted
// no-op, and failures nest — a link failed twice stays dead through
// the first recovery and restores on the second, with the downtime
// integral spanning first-fail to last-recover.
func TestNestedAndSpuriousFaults(t *testing.T) {
	const cap0 = 10e9
	e := NewEngine(fluid.NewNetwork([]float64{cap0}), Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.RecoverLink(0, 50e-6) // spurious: link is healthy
	e.FailLink(0, 200e-6)
	e.FailLink(0, 250e-6)    // nests: no further change
	e.RecoverLink(0, 300e-6) // unwinds one level: still dead
	e.RecoverLink(0, 600e-6) // restores
	e.Run(math.Inf(1))

	ideal := float64(1<<20) * 8 / cap0
	want := ideal + (600e-6 - 200e-6)
	if !f.Done() || math.Abs(f.Finish-want) > 1e-12 {
		t.Errorf("finish %v (done=%v), want %v", f.Finish, f.Done(), want)
	}
	s := e.Stats()
	if s.Faults != 5 || s.Stranded != 1 || s.Resumed != 1 || s.LinksDown != 0 {
		t.Errorf("fault stats: %+v, want 5 faults, 1 stranded, 1 resumed, 0 down", s)
	}
	if got, want := s.CapacityLostBitSec, cap0*(600e-6-200e-6); math.Abs(got-want) > 1 {
		t.Errorf("CapacityLostBitSec %v, want %v (first fail to last recover)", got, want)
	}
}

// TestSameInstantFailRecoverCancels: a fail and recover retiring at
// the same instant (failures order before recoveries) net to no
// capacity change, no stranding, and zero accrued downtime — but both
// count as applied faults and the finish time is untouched bitwise.
func TestSameInstantFailRecoverCancels(t *testing.T) {
	run := func(withFault bool) *fluid.Flow {
		e := NewEngine(fluid.NewNetwork([]float64{10e9}), Config{})
		f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
		if withFault {
			e.FailLink(0, 300e-6)
			e.RecoverLink(0, 300e-6)
		}
		e.Run(math.Inf(1))
		s := e.Stats()
		if withFault {
			if s.Faults != 2 || s.Stranded != 0 || s.Resumed != 0 || s.LinksDown != 0 ||
				s.StrandedSec != 0 || s.CapacityLostBitSec != 0 {
				t.Errorf("same-instant pair accrued degradation: %+v", s)
			}
		}
		return f
	}
	clean, faulted := run(false), run(true)
	if math.Float64bits(clean.Finish) != math.Float64bits(faulted.Finish) {
		t.Errorf("same-instant fail+recover moved the finish: %v != %v",
			faulted.Finish, clean.Finish)
	}
}

// TestFaultLostServiceIdentity pins the degradation accounting against
// the flow tracer's invariant: for every flow admitted on a healthy
// path, the per-link lost-service integrals — stranded time included,
// attributed in full to the failed bottleneck — sum to FCT − IdealFCT.
// A flow admitted mid-failure onto the dead path is not traced (it has
// no finite ideal FCT) but still strands, resumes, and completes.
func TestFaultLostServiceIdentity(t *testing.T) {
	const failT, recoverT = 500e-6, 1500e-6
	ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9}), Config{Obs: obs.Hooks{FlowTrace: ft}})
	a := e.AddFlow([]int{0}, core.ProportionalFair(), 4<<20, 0)
	b := e.AddFlow([]int{0, 1}, core.ProportionalFair(), 4<<20, 0)
	// Admitted while link 1 is down: stranded from birth, untraced.
	c := e.AddFlow([]int{1}, core.ProportionalFair(), 1<<20, 1e-3)
	e.FailLink(1, failT)
	e.RecoverLink(1, recoverT)
	e.Run(math.Inf(1))

	for _, f := range []*fluid.Flow{a, b, c} {
		if !f.Done() {
			t.Fatalf("flow %d unfinished: remaining %v", f.ID, f.Remaining)
		}
	}
	s := e.Stats()
	if s.Stranded != 2 || s.Resumed != 2 {
		t.Errorf("stranded/resumed = %d/%d, want 2/2 (b and c)", s.Stranded, s.Resumed)
	}
	if sum := ft.Summary(); sum.Tracked != 2 {
		t.Errorf("tracer tracked %d flows, want 2 (dead-path admit untraced)", sum.Tracked)
	}
	recs := ft.Records()
	if len(recs) != 2 {
		t.Fatalf("tracer kept %d records, want 2", len(recs))
	}
	var bLost float64
	for _, r := range recs {
		gap := r.FCT() - r.IdealFCT()
		if diff := math.Abs(r.TotalLost() - gap); diff > 1e-6 {
			t.Errorf("flow %d: lost-service identity broken: ΣLostSecs %v vs FCT−Ideal %v (Δ %v)",
				r.ID, r.TotalLost(), gap, diff)
		}
		if r.ID == b.ID {
			bLost = r.TotalLost()
		}
	}
	// b sat stranded for the full downtime, so its lost service must
	// carry at least that much.
	if down := recoverT - failT; bLost < down {
		t.Errorf("stranded flow lost %v s of service, want ≥ downtime %v", bLost, down)
	}
}

// buildFuzzFaults decodes the same byte stream buildFuzzSchedule reads
// into an interleaved fault schedule on the six-link fuzz network:
// three bytes per entry select the time delta, the link, and the fault
// shape — a permanent failure, a fail+recover pair, a same-instant
// fail+recover (which must cancel), a bare recovery (spurious or
// unwinding an earlier nest), or nothing. Every byte stream is valid.
func buildFuzzFaults(e *Engine, data []byte) {
	const links = 6
	at := 0.0
	for i := 0; i+2 < len(data); i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		at += float64(b0%8) * 25e-6
		l := int(b1) % links
		switch {
		case b2&0xc0 == 0xc0:
			e.FailLink(l, at)
			e.RecoverLink(l, at)
		case b2&0x80 != 0:
			e.FailLink(l, at)
			if b2&0x3f != 0 {
				e.RecoverLink(l, at+float64(b2&0x3f)*25e-6)
			}
		case b2&0x40 != 0:
			e.RecoverLink(l, at)
		}
	}
}

// FuzzFaultSchedule is the fault-injection correctness fuzzer: any
// decoded flow/group schedule interleaved with any decoded fault
// schedule — nested failures, same-instant fail+recover pairs,
// recoveries past a mid-run deadline cut — must finish every flow and
// group at times bitwise equal under component-local re-solves and
// under Global full re-solves, with the same degradation accounting.
func FuzzFaultSchedule(f *testing.F) {
	// Structured seeds: colliding arrivals with a permanent failure, a
	// fail+recover pair over shared links, same-instant pairs, and
	// nested failures over groups and unbounded flows.
	f.Add([]byte{0, 1, 8, 0x85, 0, 1, 8, 0x88, 2, 0x41, 16, 0xc1, 1, 2, 255, 0x20})
	f.Add([]byte{0, 0, 0xc0, 0, 1, 0xc5, 0, 2, 0xff, 1, 3, 0x81, 2, 4, 100, 0x60})
	f.Add([]byte{0, 0, 1, 0x80, 0, 0, 1, 0x80, 0, 0, 1, 0x42, 0, 0, 1, 0})
	f.Add([]byte{3, 0x7f, 200, 0xff, 2, 5, 100, 0x83, 1, 0x48, 50, 0xc5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		cut := math.Inf(1)
		if len(data) > 0 && data[0]&1 == 0 {
			cut = float64(data[0]) * 25e-6
		}
		run := func(cfg Config) (*Engine, []*fluid.Flow, []*fluid.Group) {
			e := NewEngine(fluid.NewNetwork(fuzzCaps()), cfg)
			buildFuzzFaults(e, data)
			fs, gs := buildFuzzSchedule(e, data)
			e.Run(cut)
			e.Run(math.Inf(1))
			return e, fs, gs
		}
		le, lf, lg := run(Config{})
		ge, gf, gg := run(Config{Global: true})
		assertSameFinishBits(t, "local-vs-global", 0, lf, lg, gf, gg)
		ls, gs := le.Stats(), ge.Stats()
		if ls.Faults != gs.Faults || ls.Stranded != gs.Stranded ||
			ls.Resumed != gs.Resumed || ls.LinksDown != gs.LinksDown {
			t.Fatalf("fault stats diverge: faults %d/%d stranded %d/%d resumed %d/%d down %d/%d",
				ls.Faults, gs.Faults, ls.Stranded, gs.Stranded,
				ls.Resumed, gs.Resumed, ls.LinksDown, gs.LinksDown)
		}
		if math.Float64bits(ls.CapacityLostBitSec) != math.Float64bits(gs.CapacityLostBitSec) {
			t.Fatalf("capacity lost diverges: %v/%v", ls.CapacityLostBitSec, gs.CapacityLostBitSec)
		}
		// The stranded-time integral sums the same terms in a different
		// grouping (per component locally, per full solve globally), so
		// it agrees to rounding, not bitwise.
		if d := math.Abs(ls.StrandedSec - gs.StrandedSec); d > 1e-12*(1+math.Abs(gs.StrandedSec)) {
			t.Fatalf("stranded time diverges: %v/%v", ls.StrandedSec, gs.StrandedSec)
		}
	})
}
