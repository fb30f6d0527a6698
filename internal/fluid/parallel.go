package fluid

import (
	"numfabric/internal/core"
	"numfabric/internal/oracle"
)

// ParallelSubsetAllocator is a SubsetAllocator that hands out solver
// views: Prime sizes the allocator's link-indexed warm state (XWI/DGD
// prices, Oracle duals) for a network, cold, and Worker returns a view
// that shares that warm state but owns its per-call workspace. The
// leap engine primes its allocator once and runs every subset solve on
// one view.
//
// Views are bound to the network Prime saw and must not be Reset
// individually — Reset the parent and re-Prime instead.
//
// Deprecated: the name is kept only because the numbench benchmark
// module type-asserts against it; nothing here is parallel any more.
// Rename it with the next change to numbench.
type ParallelSubsetAllocator interface {
	SubsetAllocator
	// Prime pre-sizes the allocator's link-indexed warm state for net.
	Prime(net *Network)
	// Worker returns a solver view sharing this allocator's warm state
	// with its own per-call workspace.
	Worker() SubsetAllocator
}

// Prime is a no-op: WaterFill keeps no state across calls.
func (w *WaterFill) Prime(net *Network) { w.s.ensureStamps() }

// Worker returns an independent WaterFill. The allocator is stateless
// across calls, so workers share nothing but the group-scan stamp
// source (which keeps concurrent scans of the same groups collision-
// free).
func (w *WaterFill) Worker() SubsetAllocator {
	return &WaterFill{
		iterCount: iterCount{n: w.ensure()},
		s:         scratch{stamps: w.s.ensureStamps()},
	}
}

// Prime sizes the shared per-link price vector (cold prices; the
// dynamics warm them from the first event on). Concurrent workers then
// read and write only their own subsets' entries.
func (a *XWI) Prime(net *Network) {
	if len(a.price) != net.Links() {
		a.price = initPrices(net, nil)
	}
	a.s.ensureStamps()
}

// Worker returns an XWI view sharing the parent's price vector — the
// warm state subset solves preserve per link — with its own iteration
// workspace.
func (a *XWI) Worker() SubsetAllocator {
	return &XWI{
		Eta: a.Eta, Beta: a.Beta, IterPerEpoch: a.IterPerEpoch, Tol: a.Tol,
		iterCount: iterCount{n: a.ensure()},
		price:     a.price,
		s:         scratch{stamps: a.s.ensureStamps()},
	}
}

// Prime sizes the shared per-link price vector (see XWI.Prime).
func (a *DGD) Prime(net *Network) {
	if len(a.price) != net.Links() {
		a.price = initPrices(net, nil)
	}
	a.s.ensureStamps()
}

// Worker returns a DGD view sharing the parent's price vector with its
// own iteration workspace.
func (a *DGD) Worker() SubsetAllocator {
	return &DGD{
		Gamma: a.Gamma, IterPerEpoch: a.IterPerEpoch, Tol: a.Tol,
		iterCount: iterCount{n: a.ensure()},
		price:     a.price,
		s:         scratch{stamps: a.s.ensureStamps()},
	}
}

// Prime sizes the shared warm-start dual vector (cold zeros; each
// solve scatters back the duals of the links it touched).
func (o *Oracle) Prime(net *Network) {
	if len(o.prices) != net.Links() {
		o.prices = make([]float64, net.Links())
	}
	o.s.ensureStamps()
	// Workers add to the parent's iteration counter at solve time, so
	// it must exist before any concurrency.
	o.ensure()
}

// Worker returns an Oracle view sharing the parent's dual vector. A
// worker warm-starts a solve from the shared duals of exactly the
// links its subset crosses (gathered into a worker-local vector, so it
// never reads an entry another worker may be writing) and scatters the
// solved duals back to those links alone; a subset's rates depend only
// on its own links' prices, so results are independent of what the
// rest of the vector holds.
func (o *Oracle) Worker() SubsetAllocator {
	return &oracleWorker{parent: o, s: scratch{stamps: o.s.ensureStamps()}}
}

// oracleWorker is Oracle's per-goroutine view: shared duals, private
// gather buffer and scan scratch.
type oracleWorker struct {
	parent *Oracle
	init   []float64
	s      scratch
}

// Allocate solves the full flow set (trivially link-closed).
func (w *oracleWorker) Allocate(net *Network, flows []*Flow, rates []float64) {
	w.AllocateSubset(net, flows, rates)
}

// Reset is a no-op on a worker view: the warm duals belong to the
// parent (Reset that and re-Prime for a cold start).
func (w *oracleWorker) Reset() {}

// AllocateSubset solves the NUM problem for a link-closed subset with
// gather/scatter warm starts confined to the subset's links.
func (w *oracleWorker) AllocateSubset(net *Network, flows []*Flow, rates []float64) {
	nl := net.Links()
	touched := w.s.collectLinks(nl, flows)
	if cap(w.init) < nl {
		w.init = make([]float64, nl)
	}
	init := w.init[:nl]
	clear(init)
	shared := w.parent.prices
	for _, l := range touched {
		init[l] = shared[l]
	}
	res := oracleSolve(net, flows, &w.s, w.parent.MaxIter, init)
	w.parent.add(int64(res.Iterations))
	for _, l := range touched {
		shared[l] = res.Prices[l]
	}
	copy(rates, res.Rates)
}

// oracleSolve builds and solves the NUM problem for flows — the shared
// core of Oracle.Allocate/AllocateSubset and the worker views.
func oracleSolve(net *Network, flows []*Flow, s *scratch, maxIter int, init []float64) oracle.Result {
	if maxIter <= 0 {
		maxIter = 2000
	}
	p := core.NewProblem(net.Capacity)
	for _, g := range s.collectGroups(flows) {
		g.gid = -1
	}
	for _, f := range flows {
		if g := f.Group; g != nil {
			if g.gid < 0 {
				g.gid = p.AddAggregate(g.U)
			}
			p.AddSubflow(g.gid, f.Links)
			continue
		}
		p.AddFlow(f.Links, f.U)
	}
	return oracle.Solve(p, oracle.SolveOptions{
		MaxIter: maxIter, Tol: 1e-7, InitPrices: init,
	})
}
