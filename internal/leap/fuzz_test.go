package leap

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
)

// fuzzCaps is the fuzz schedule's heterogeneous six-link network.
func fuzzCaps() []float64 {
	return []float64{10e9, 10e9, 25e9, 40e9, 10e9, 25e9}
}

// buildFuzzSchedule decodes a byte stream into a random schedule: four
// bytes per entry select the arrival-grid delta (zero deltas build
// colliding instants), a one- or two-link path, the size (255 encodes
// an unbounded flow), out-of-order scheduling (exercising the
// unsorted-pending sort), and whether the entry is a flow or a
// two-path group. Every byte stream is a valid schedule, so the fuzzer
// explores the engine, not the decoder.
func buildFuzzSchedule(e *Engine, data []byte) ([]*fluid.Flow, []*fluid.Group) {
	const links = 6
	var fs []*fluid.Flow
	var gs []*fluid.Group
	at := 0.0
	for i := 0; i+3 < len(data); i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		at += float64(b0%4) * 50e-6
		path := []int{int(b1) % links}
		if b1&0x40 != 0 {
			if l2 := int(b1>>3) % links; l2 != path[0] {
				path = append(path, l2)
			}
		}
		size := int64(0) // unbounded: holds its rate forever
		if b2 != 255 {
			size = int64(1+int(b2)) << 12
		}
		t := at
		if b3&0x20 != 0 && t >= 100e-6 {
			t -= 100e-6 // schedule behind the tail: unsorted pending
		}
		if b3&0xc0 == 0xc0 && size > 0 {
			p2 := []int{int(b3) % links}
			gs = append(gs, e.AddGroup([][]int{path, p2}, core.ProportionalFair(), size, t))
		} else {
			fs = append(fs, e.AddFlow(path, core.ProportionalFair(), size, t))
		}
	}
	return fs, gs
}

// FuzzComponentLocalMatchesGlobal is the component-machinery fuzzer:
// any decoded schedule — including a mid-run deadline cut derived from
// the input — must finish every flow and group at times bitwise equal
// under component-local re-solves and under Global full re-solves,
// with the same event count. WaterFill is separable across connected
// components, so any disagreement is a component-tracking bug (a
// missed seed, a wrong flood, a stale resplice), not float noise.
func FuzzComponentLocalMatchesGlobal(f *testing.F) {
	// Structured seeds: colliding instants on shared links, two-link
	// paths with groups, unbounded flows, out-of-order arrivals.
	f.Add([]byte{0, 1, 8, 0, 0, 1, 8, 0, 2, 0x41, 16, 0xc1, 1, 2, 255, 0x20})
	f.Add([]byte{1, 0x49, 32, 0, 1, 0x52, 64, 0xc3, 0, 3, 9, 0, 3, 4, 12, 0x20})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0})
	f.Add([]byte{3, 0x7f, 200, 0xff, 2, 5, 100, 0x60, 1, 0x48, 50, 0xc5})
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
			fs, gs := buildFuzzSchedule(e, data)
			e.Run(cut)
			e.Run(math.Inf(1))
			return e, fs, gs
		}
		le, lf, lg := run(Config{})
		ge, gf, gg := run(Config{Global: true})
		for i := range lf {
			if math.Float64bits(lf[i].Finish) != math.Float64bits(gf[i].Finish) {
				t.Fatalf("flow %d: global finish %v != component-local %v",
					lf[i].ID, gf[i].Finish, lf[i].Finish)
			}
		}
		for i := range lg {
			if math.Float64bits(lg[i].Finish) != math.Float64bits(gg[i].Finish) {
				t.Fatalf("group %d: global finish %v != component-local %v",
					lg[i].ID, gg[i].Finish, lg[i].Finish)
			}
		}
		if le.Events() != ge.Events() {
			t.Fatalf("events %d (local) vs %d (global)", le.Events(), ge.Events())
		}
	})
}
