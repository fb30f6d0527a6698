package main

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/sim"
)

// TestTimedAllocatorIdenticalFinishes pins that wrapping the allocator
// in the timing decorator leaves the engine on the same code path:
// finish times are bitwise identical to a bare run for WaterFill and
// xWI, serial and with two workers.
func TestTimedAllocatorIdenticalFinishes(t *testing.T) {
	allocs := map[string]func() fluid.Allocator{
		"waterfill": func() fluid.Allocator { return fluid.NewWaterFill() },
		"xwi":       websearchXWIFaults.allocator,
	}
	for name, newAlloc := range allocs {
		for _, workers := range []int{1, 2} {
			bare := finishes(t, newAlloc(), workers)
			ta, err := newTimedAllocator(newAlloc(), 7)
			if err != nil {
				t.Fatal(err)
			}
			timed := finishes(t, ta, workers)
			for i := range bare {
				if math.Float64bits(bare[i]) != math.Float64bits(timed[i]) {
					t.Fatalf("%s workers=%d: flow %d finishes at %v wrapped, %v bare", name, workers, i, timed[i], bare[i])
				}
			}
			solves := 0
			for _, v := range ta.views {
				solves += len(v.solves)
			}
			if solves == 0 {
				t.Fatalf("%s workers=%d: the decorator logged no solves", name, workers)
			}
		}
	}
}

// finishes plays a small web-search schedule on a k=4 fat-tree and
// returns every flow's finish time in admission order.
func finishes(t *testing.T, alloc fluid.Allocator, workers int) []float64 {
	t.Helper()
	ft := fluid.NewFatTree(4, linkRate)
	arrivals, paths := harness.FatTreeWebSearch(ft, 0.3, 2000, sim.NewRNG(3))
	eng := leap.NewEngine(ft.Net, leap.Config{Allocator: alloc, Workers: workers, LinkShards: ft.LinkShards()})
	flows := make([]*fluid.Flow, len(arrivals))
	for i, a := range arrivals {
		flows[i] = eng.AddFlow(paths[i], core.FCTMin(a.Size, 0.125), a.Size, a.At.Seconds())
	}
	eng.Run(math.Inf(1))
	out := make([]float64, len(flows))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d unfinished", i)
		}
		out[i] = f.Finish
	}
	return out
}

// TestTimedAllocatorForwarding pins that the decorator wraps every
// fluid allocator (each has the whole method set the leap engine
// consults) and refuses one it could not forward faithfully.
func TestTimedAllocatorForwarding(t *testing.T) {
	for _, a := range []fluid.Allocator{fluid.NewWaterFill(), fluid.NewXWI(), fluid.NewDGD(), fluid.NewOracle()} {
		if _, err := newTimedAllocator(a, 0); err != nil {
			t.Error(err)
		}
	}
	if _, err := newTimedAllocator(plainAllocator{}, 0); err == nil {
		t.Fatal("wrapped an allocator without the subset/worker methods")
	}
}

type plainAllocator struct{}

func (plainAllocator) Allocate(*fluid.Network, []*fluid.Flow, []float64) {}
func (plainAllocator) Reset()                                            {}

// TestCovered pins the union length behind span self time.
func TestCovered(t *testing.T) {
	kids := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 15, end: 30}, {start: 30, end: 31}}
	if got := covered(kids); got != 26 {
		t.Fatalf("covered = %d, want 26", got)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("covered(nil) = %d, want 0", got)
	}
}
