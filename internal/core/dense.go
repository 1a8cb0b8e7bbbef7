package core

// This file holds the integer form the search runs on. Between Engine.Solve's
// entry and the things that leave it — an improved incumbent, the final
// result, a reported polish move, a Probe, a panic repro — a mapping is a
// factor row: beam states, memoized candidates, completions, dedupe keys,
// scores, tie-break renders and polish moves all read and write rows, and a
// mapping.Mapping is built only by materialize, only for what leaves.

import (
	"slices"
	"strconv"

	"sunstone/internal/anytime"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/tile"
	"sunstone/internal/unroll"
)

// noOrder marks a level whose loop order is unset.
const noOrder = -1

// rowShape is the layout of one mapping in row form, a []int of stride()
// entries: the temporal factor of dimension i at level l at [l*nd+i], the
// spatial factors likewise after them (1 = unassigned), then per level the
// index of its loop order in the search's orderTable (noOrder = unset).
type rowShape struct{ nd, nl int }

func (sh rowShape) stride() int { return 2*sh.nl*sh.nd + sh.nl }

// view slices row into its three parts.
func (sh rowShape) view(row []int) partial {
	n := sh.nl * sh.nd
	return partial{nd: sh.nd, nl: sh.nl, row: row, t: row[:n], s: row[n : 2*n], ord: row[2*n : 2*n+sh.nl]}
}

// empty returns the row of the mapping with nothing assigned.
func (sh rowShape) empty() []int {
	p := sh.view(make([]int, sh.stride()))
	for i := range p.t {
		p.t[i], p.s[i] = 1, 1
	}
	for l := range p.ord {
		p.ord[l] = noOrder
	}
	return p.row
}

// partial is a (partial or complete) mapping in row form: views of one row.
type partial struct {
	nd, nl int
	row    []int
	t, s   []int
	ord    []int
}

func (p *partial) trow(l int) []int { return p.t[l*p.nd : (l+1)*p.nd] }
func (p *partial) srow(l int) []int { return p.s[l*p.nd : (l+1)*p.nd] }

// spatialProduct returns the product of level l's spatial factors.
func (p *partial) spatialProduct(l int) int {
	sp := 1
	for _, f := range p.srow(l) {
		sp *= f
	}
	return sp
}

// extent returns the product of dimension i's factors over levels [lo, hi).
func (p *partial) extent(i, lo, hi int) int {
	e := 1
	for l := lo; l < hi; l++ {
		e *= p.t[l*p.nd+i] * p.s[l*p.nd+i]
	}
	return e
}

// orderTable resolves the loop-order indices rows carry to dimension-index
// lists. A search starts from the compiled table (dimTable.orders) — shared,
// read-only, the compiled orderings' completed orders first, which are the
// only ones the enumeration writes and therefore the only ones the expansion
// memo ever sees — and appends, to its own copy, the orders of a mapping that
// reaches it from outside (a warm start; see rowOf).
type orderTable [][]int32

// resolve fills dst with the loop order of each level of p, nil where unset.
func (ot orderTable) resolve(dst [][]int32, p *partial) [][]int32 {
	for l, k := range p.ord {
		dst[l] = nil
		if k != noOrder {
			dst[l] = ot[k]
		}
	}
	return dst
}

// workspace is one pool worker's scratch for expansion units, completions and
// scoring: the factor row of the mapping under extension, the capacity
// tables over it, the enumeration walkers, the worker's Evaluator, and the
// vectors the stages pass between each other. A search owns one per thread;
// nothing in it outlives the unit or completion that is running, so the
// expansion and evaluation fan-outs (which never overlap) share it.
type workspace struct {
	comp   *Compiled
	orders *orderTable
	ev     *cost.Evaluator
	p      partial
	fc     fitChecker
	tw     tile.Walker
	uw     unroll.Walker

	ladder func(n, minDivisors int) []int // comp.ladders.ladder, bound once
	quota  []int                          // per walked dimension, for the walkers
	saved  []int                          // a factor row to restore after probing
	low    []int                          // feasible spatial rows of level 0 (step 0 only)
	high   []int                          // feasible spatial rows of the step's unrolled level
	// unrolled is that level's spatial row as the base mapping has it.
	unrolled []int
	oidx     [][]int32 // nl scratch: a mapping's loop orders as the Evaluator takes them

	// Tiling-tree probe state, read by tileFits.
	tileFits  func(fs []int) bool
	tileLevel int
	tileDims  []int
	poll      anytime.Poller

	top topWalk
}

func newWorkspace(comp *Compiled, orders *orderTable, ev *cost.Evaluator) *workspace {
	sh := comp.shape
	ws := &workspace{
		comp:   comp,
		orders: orders,
		ev:     ev,
		p:      sh.view(sh.empty()),
		fc:     fitChecker{sess: comp.sess},
		ladder: comp.ladders.ladder,
		quota:  make([]int, sh.nd),
		saved:  make([]int, sh.nd),
		oidx:   make([][]int32, sh.nl),
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

// load resets the workspace's mapping to row. The row itself — a memo entry's,
// a beam state's — is never written.
func (ws *workspace) load(row []int) { copy(ws.p.row, row) }

// emit appends the workspace's mapping to out as one produced candidate, with
// the canonical key dedupe will compare it by. Enumerated factors are all at
// least 1, so the key always exists.
func (ws *workspace) emit(out *unitOut) {
	k, _ := ws.ev.KeyRows(ws.p.t, ws.p.s, ws.orders.resolve(ws.oidx, &ws.p))
	out.rows = append(out.rows, ws.p.row...)
	out.keys = append(out.keys, k)
}

// materialize builds the mapping.Mapping of a row. Callers are the places a
// mapping leaves the search — see the file comment.
func (sc *search) materialize(row []int) *mapping.Mapping {
	p := sc.comp.shape.view(row)
	return mapping.FromRows(sc.comp.w, sc.comp.a, p.t, p.s, sc.orders.resolve(make([][]int32, p.nl), &p))
}

// rowOf converts a mapping that came from outside the enumeration into row
// form, appending its loop orders to ot (names the workload does not declare,
// which nothing reads, are dropped): the compiled table for the analytic
// seed, a search's own for a warm start — on the driver goroutine, before the
// first fan-out.
func (c *Compiled) rowOf(ot *orderTable, m *mapping.Mapping) []int {
	dt := &c.dims
	p := c.shape.view(c.shape.empty())
	for l := range m.Levels {
		lm := &m.Levels[l]
		t, s := p.trow(l), p.srow(l)
		for i, d := range dt.names {
			t[i], s[i] = lm.T(d), lm.S(d)
		}
		if len(lm.Order) > 0 {
			p.ord[l] = len(*ot)
			*ot = append(*ot, dt.indices(lm.Order))
		}
	}
	return p.row
}

// renderRow appends the canonical render of row to b: byte for byte what
// mapping.Mapping.String returns for the materialized mapping (pinned by
// TestRenderRowMatchesString), without building it. seen is nd scratch flags,
// all false on entry and on return.
func (sc *search) renderRow(b []byte, row []int, seen []bool) []byte {
	dt, a := &sc.comp.dims, sc.comp.a
	p := sc.comp.shape.view(row)
	loop := func(i, n int) {
		b = append(b, ' ')
		b = append(b, dt.names[i]...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	for l := p.nl - 1; l >= 0; l-- {
		b = append(b, a.Levels[l].Name...)
		b = append(b, ':')
		t, s := p.trow(l), p.srow(l)
		// Outermost first: the undeclared remainder in reverse canonical
		// order, then the declared order reversed (first mention wins).
		var declared []int32
		if k := p.ord[l]; k != noOrder {
			declared = (*sc.orders)[k]
		}
		for _, i := range declared {
			seen[i] = true
		}
		for i := p.nd - 1; i >= 0; i-- {
			if !seen[i] && t[i] > 1 {
				loop(i, t[i])
			}
		}
		for k := len(declared) - 1; k >= 0; k-- {
			if i := declared[k]; t[i] > 1 && !slices.Contains(declared[:k], i) {
				loop(int(i), t[i])
			}
			seen[declared[k]] = false
		}
		spatial := false
		for _, i := range dt.all.idx { // name order
			if s[i] > 1 {
				if !spatial {
					b = append(b, " [spatial:"...)
					spatial = true
				}
				loop(i, s[i])
			}
		}
		if spatial {
			b = append(b, ']')
		}
		if l > 0 {
			b = append(b, '\n')
		}
	}
	return b
}
