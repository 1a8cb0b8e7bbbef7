package core

// This file holds the integer state one expansion unit or one completion runs
// on. The search's currency between steps stays *mapping.Mapping — the memo,
// dedupe, the evaluator, progress events and serde all consume it — but
// inside a unit every factor lives in a flat matrix indexed by (level,
// dimension index), capacity is answered by the fitChecker over that matrix,
// and a Mapping is built once per candidate that survives the enumeration.

import (
	"sunstone/internal/anytime"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/tile"
	"sunstone/internal/unroll"
)

// partial is a partial mapping in integer form: t and s hold the temporal and
// spatial factor of dimension i at level l at [l*nd+i] (1 = unassigned),
// order the loop order of each level (shared, read-only slices).
type partial struct {
	nd, nl int
	t, s   []int
	order  [][]tensor.Dim
}

func (p *partial) trow(l int) []int { return p.t[l*p.nd : (l+1)*p.nd] }
func (p *partial) srow(l int) []int { return p.s[l*p.nd : (l+1)*p.nd] }

// extent returns the product of dimension i's factors over levels [lo, hi).
func (p *partial) extent(i, lo, hi int) int {
	e := 1
	for l := lo; l < hi; l++ {
		e *= p.t[l*p.nd+i] * p.s[l*p.nd+i]
	}
	return e
}

func factorMap(dims []tensor.Dim, row []int) map[tensor.Dim]int {
	n := 0
	for _, f := range row {
		if f > 1 {
			n++
		}
	}
	fm := make(map[tensor.Dim]int, n)
	for i, f := range row {
		if f > 1 {
			fm[dims[i]] = f
		}
	}
	return fm
}

// workspace is one pool worker's scratch for expansion units and completions:
// the factor matrix of the partial mapping under extension, the capacity
// tables over it, the enumeration walkers, and the vectors the stages pass
// between each other. A search owns one per thread, indexed by worker id like
// its scratch Evaluators; nothing in it outlives the unit or completion that
// is running, so the expansion and evaluation fan-outs (which never overlap)
// share it.
type workspace struct {
	comp *Compiled
	p    partial
	fc   fitChecker
	tw   tile.Walker
	uw   unroll.Walker

	ladder func(n, minDivisors int) []int // comp.ladders.ladder, bound once
	quota  []int                          // per walked dimension, for the walkers
	saved  []int                          // a factor row to restore after probing
	low    []int                          // feasible spatial rows of level 0 (step 0 only)
	high   []int                          // feasible spatial rows of the step's unrolled level
	// unrolled is that level's spatial row as the base mapping has it.
	unrolled []int

	// Tiling-tree probe state, read by tileFits.
	tileFits  func(fs []int) bool
	tileLevel int
	tileDims  []int
	poll      anytime.Poller

	top topWalk
}

func newWorkspace(comp *Compiled) *workspace {
	nd, nl := len(comp.dims.names), len(comp.a.Levels)
	ws := &workspace{
		comp:   comp,
		p:      partial{nd: nd, nl: nl, t: make([]int, nl*nd), s: make([]int, nl*nd), order: make([][]tensor.Dim, nl)},
		fc:     fitChecker{skel: &comp.fit},
		ladder: comp.ladders.ladder,
		quota:  make([]int, nd),
		saved:  make([]int, nd),
	}
	ws.top.ws = ws
	ws.tileFits = func(fs []int) bool {
		if ws.poll.Stop() != StopComplete {
			return false
		}
		row := ws.p.trow(ws.tileLevel)
		for k, i := range ws.tileDims {
			row[i] = fs[k]
		}
		return ws.fc.fits(row)
	}
	return ws
}

// load resets the workspace's partial mapping to m: its factors and loop
// orders (the order slices are shared, read-only).
func (ws *workspace) load(m *mapping.Mapping) {
	p := &ws.p
	for l := range m.Levels {
		lm := &m.Levels[l]
		t, s := p.trow(l), p.srow(l)
		for i, d := range ws.comp.dims.names {
			t[i], s[i] = lm.T(d), lm.S(d)
		}
		p.order[l] = lm.Order
	}
}

// materialize builds the mapping.Mapping of the workspace's partial mapping:
// factors above 1 become map entries (what every map-writing path of the
// search always did), each level gets its own copy of its loop order.
func (ws *workspace) materialize() *mapping.Mapping {
	p, dims := &ws.p, ws.comp.dims.names
	m := &mapping.Mapping{Workload: ws.comp.w, Arch: ws.comp.a, Levels: make([]mapping.LevelMapping, p.nl)}
	orders := 0
	for _, o := range p.order {
		orders += len(o)
	}
	backing := make([]tensor.Dim, 0, orders)
	for l := range m.Levels {
		lm := &m.Levels[l]
		lm.Temporal = factorMap(dims, p.trow(l))
		lm.Spatial = factorMap(dims, p.srow(l))
		if o := p.order[l]; len(o) > 0 {
			lo := len(backing)
			backing = append(backing, o...)
			lm.Order = backing[lo:len(backing):len(backing)]
		}
	}
	return m
}
