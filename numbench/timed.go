package main

import (
	"fmt"

	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// fullAllocator is the method set every fluid allocator (WaterFill,
// XWI, DGD, Oracle) implements and the leap engine consults: the
// subset and parallel-worker solve paths, the iteration counter and
// the bottleneck report.
type fullAllocator interface {
	fluid.ParallelSubsetAllocator
	fluid.IterCounter
	fluid.BottleneckReporter
}

// timedAllocator is a timing decorator around a leap allocator. It
// forwards the same optional interfaces the wrapped allocator has, so
// leap.NewEngine takes the same code path (Prime once, then one Worker
// view per engine worker) with or without it. Each view logs its own
// solves; nothing mutable is shared between views, and the logs are
// merged only after the run.
type timedAllocator struct {
	inner fullAllocator
	// self logs the solves the engine makes on the parent itself
	// (global re-solves); the engine's worker views log their own.
	self  *timedView
	views []*timedView
	// sampleEvery > 0 keeps every sampleEvery-th solve of each view
	// for the shadow Oracle re-solve made after the run.
	sampleEvery int
}

// newTimedAllocator wraps a. It refuses an allocator that lacks any
// method of fullAllocator, rather than hiding the difference from the
// engine.
func newTimedAllocator(a fluid.Allocator, sampleEvery int) (*timedAllocator, error) {
	inner, ok := a.(fullAllocator)
	if !ok {
		return nil, fmt.Errorf("timed allocator: %T lacks the subset/worker/iteration/bottleneck methods", a)
	}
	t := &timedAllocator{inner: inner, sampleEvery: sampleEvery}
	t.self = t.newView(inner)
	return t, nil
}

func (t *timedAllocator) newView(inner fluid.SubsetAllocator) *timedView {
	v := &timedView{inner: inner, sampleEvery: t.sampleEvery}
	t.views = append(t.views, v)
	return v
}

func (t *timedAllocator) Allocate(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	t.self.Allocate(net, flows, rates)
}

func (t *timedAllocator) AllocateSubset(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	t.self.AllocateSubset(net, flows, rates)
}

func (t *timedAllocator) Reset()                   { t.inner.Reset() }
func (t *timedAllocator) Prime(net *fluid.Network) { t.inner.Prime(net) }
func (t *timedAllocator) SolveIters() int64        { return t.inner.SolveIters() }

// Worker returns a timed view of a fresh worker of the wrapped
// allocator. The engine calls it only from NewEngine, before any
// concurrency starts.
func (t *timedAllocator) Worker() fluid.SubsetAllocator { return t.newView(t.inner.Worker()) }

func (t *timedAllocator) Bottlenecks(net *fluid.Network, flows []*fluid.Flow, rates []float64, out []int32) {
	t.inner.Bottlenecks(net, flows, rates, out)
}

// solveRec is one logged solve: its clock interval (obs.Now
// nanoseconds) and its flow count.
type solveRec struct {
	start, end int64
	flows      int32
}

// sample is one solve kept for the shadow Oracle re-solve: the flows
// (their paths and utilities stay valid after the run, because the
// benchmark never recycles engine tables) and the rates the allocator
// gave them.
type sample struct {
	flows []*fluid.Flow
	rates []float64
	// dead is set when a link of the subset was down at the solve.
	dead bool
}

// timedView times one worker's solves. Work the view adds after a
// solve (the overload check and the sample copy) runs after the end
// stamp, outside the solve's span.
type timedView struct {
	inner       fluid.SubsetAllocator
	sampleEvery int

	solves  []solveRec
	samples []sample
	// overloads counts solves that loaded a link beyond its capacity
	// by more than overloadTol relative; maxOverload is the largest
	// relative excess seen.
	overloads   int
	maxOverload float64
	load        []float64
	touched     []int
}

// overloadTol is the relative slack the overload check allows.
const overloadTol = 1e-9

func (v *timedView) Allocate(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	start := obs.Now()
	v.inner.Allocate(net, flows, rates)
	v.after(start, obs.Now(), net, flows, rates)
}

func (v *timedView) AllocateSubset(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	start := obs.Now()
	v.inner.AllocateSubset(net, flows, rates)
	v.after(start, obs.Now(), net, flows, rates)
}

// Reset forwards to the wrapped view. The engine never resets worker
// views individually.
func (v *timedView) Reset() { v.inner.Reset() }

func (v *timedView) after(start, end int64, net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	v.solves = append(v.solves, solveRec{start: start, end: end, flows: int32(len(flows))})
	if over := v.overload(net, flows, rates); over > overloadTol {
		v.overloads++
		v.maxOverload = max(v.maxOverload, over)
	}
	if v.sampleEvery > 0 && len(v.solves)%v.sampleEvery == 0 {
		s := sample{
			flows: append([]*fluid.Flow(nil), flows...),
			rates: append([]float64(nil), rates[:len(flows)]...),
		}
		for _, f := range flows {
			for _, l := range f.Links {
				s.dead = s.dead || net.Capacity[l] == 0
			}
		}
		v.samples = append(v.samples, s)
	}
}

// overload returns the largest relative excess of a link's load over
// its capacity under the solve's rates (+Inf for load on a dead link).
// The check is exact for a subset solve because the engine hands the
// allocator link-closed subsets: no flow outside the subset crosses a
// link the subset uses.
func (v *timedView) overload(net *fluid.Network, flows []*fluid.Flow, rates []float64) float64 {
	if len(v.load) != net.Links() {
		v.load = make([]float64, net.Links())
	}
	v.touched = v.touched[:0]
	for i, f := range flows {
		for _, l := range f.Links {
			if v.load[l] == 0 {
				v.touched = append(v.touched, l)
			}
			v.load[l] += rates[i]
		}
	}
	over := 0.0
	for _, l := range v.touched {
		if c := net.Capacity[l]; v.load[l] > c {
			over = max(over, v.load[l]/c-1)
		}
		v.load[l] = 0
	}
	return over
}
