package core

// This file holds the bottom-up expansion machinery: the candidate
// generators for the default direction (Table VI row 1). The
// level-sequencing driver itself is shared with top-down — see stepper.go;
// this file only knows how to extend a partial mapping upward by one level.

import (
	"context"
	"encoding/binary"
	"math"

	"sunstone/internal/anytime"
	"sunstone/internal/tile"
	"sunstone/internal/unroll"
)

// expandBottomUnit is the sequencer's per-(state, ordering) expansion unit
// for the bottom-up direction: it extends the partial mapping in row base at
// step l under ordering oi — loop ordering for level l+1, tiling of level l,
// spatial unrolling at level 0 (step 0 only) and at level l+1. Every
// produced candidate is charged as generated, and the visit count handed to
// the (unbounded) step budget includes both the enumeration effort and the
// candidates themselves, matching the paper's space-size merit; the budget
// parameter itself is ignored. Reject tallies are accumulated locally in the
// returned unitOut and flushed once per state by the driver (see
// replayExpansion) so the hot enumeration loops never touch an atomic and a
// memoized replay charges identical deltas.
//
// The unit runs on a pool worker, on that worker's workspace: base is copied
// into the factor matrix once, every stage below mutates rows of it in place
// and restores them, and each candidate that comes out the far end is
// appended to the unit's output as a row (workspace.emit). The unit must not
// touch anything mutable that is shared with sibling units: it reads base
// (never written after creation) and goes through the compiled problem's
// read-only tables and internally-synchronized ladder cache. Cancellation is checked on entry and
// polled inside the tiling walk, so a stop truncates the candidate set rather
// than discarding it (the driver then skips memoization).
func (sc *search) expandBottomUnit(ctx context.Context, ws *workspace, base []int, l, oi, budget int) unitOut {
	var out unitOut
	if anytime.FromContext(ctx) != StopComplete {
		return out
	}
	dt := &sc.comp.dims
	plan := &dt.orderings[oi]
	walk := plan.walk(dt)
	a := sc.comp.a
	p := &ws.p
	nd := p.nd
	effort := 0

	ws.load(base)
	p.ord[l+1] = oi

	// Step 0 also assigns the unrolling below the first memory level
	// (e.g. the DianNao NFU between the on-chip buffers and the MACs).
	ws.low = append(ws.low[:0], p.srow(0)...)
	if l == 0 && a.Levels[0].Fanout > 1 {
		ws.low = sc.unrollAt(ws, 0, &dt.all, ws.low[:0], &out.prunedUnrolling)
		effort += len(ws.low) / nd
	}

	// Unrolling is settled before tiling (the paper's default
	// intra-level order, Table VI row 1): the spatial fanout must claim
	// its share of the factor budget before the maximal-tile search
	// consumes it, or the PE array is left underutilized.
	ws.unrolled = append(ws.unrolled[:0], p.srow(l+1)...)
	for lo := 0; lo < len(ws.low); lo += nd {
		copy(p.srow(0), ws.low[lo:lo+nd])
		copy(p.srow(l+1), ws.unrolled) // the previous iteration left its last unrolling here
		ws.high = append(ws.high[:0], ws.unrolled...)
		if a.Levels[l+1].Fanout > 1 {
			ws.high = sc.unrollAt(ws, l+1, walk, ws.high[:0], &out.prunedUnrolling)
			effort += len(ws.high) / nd
		}
		for hi := 0; hi < len(ws.high); hi += nd {
			copy(p.srow(l+1), ws.high[hi:hi+nd])
			tiles, tstats := sc.enumerateTiles(ctx, ws, l, walk)
			effort += tstats.NodesVisited
			out.prunedTiling += tstats.NodesVisited - tstats.Survivors
			trow := p.trow(l)
			copy(ws.saved, trow)
			for ti := 0; ti < tstats.Survivors; ti++ {
				for k, i := range walk.idx {
					if f := tiles[ti*len(walk.idx)+k]; f > 1 {
						trow[i] = f
					}
				}
				sc.residualFill(ws, l, plan.inGrow)
				ws.emit(&out)
				copy(trow, ws.saved)
			}
		}
	}
	out.visited = effort + len(out.keys)
	return out
}

// strategyEffort is the bottom-up sequencer's per-state effort hook: the
// non-default intra-level orders enumerate their first stage without the
// ordering's principle guidance and filter later, so they visit extra nodes
// for the same final set. The cost is independent of any single ordering, so
// the driver charges it once per state (folded into the state's first unit).
func (sc *search) strategyEffort(ctx context.Context, ws *workspace, base []int, l int) int {
	switch sc.study.Strategy {
	case TileUnrollOrder:
		return sc.unguidedTileEffort(ctx, ws, base, l)
	case UnrollTileOrder:
		return sc.unguidedUnrollEffort(ws, base, l) + sc.unguidedTileEffort(ctx, ws, base, l)
	}
	return 0
}

// replayExpansion charges one expansion's candidate-flow deltas — whether
// the expansion just ran or was served from the compiled memo, the counters
// move identically: every produced candidate plus every enumeration reject
// counts as generated, rejects additionally to their pruning principle.
func (sc *search) replayExpansion(e *expandEntry) {
	sc.ctr.Generated.Add(uint64(len(e.keys) + e.prunedTiling + e.prunedUnrolling))
	if e.prunedTiling > 0 {
		sc.ctr.PrunedTiling.Add(uint64(e.prunedTiling))
	}
	if e.prunedUnrolling > 0 {
		sc.ctr.PrunedUnrolling.Add(uint64(e.prunedUnrolling))
	}
}

// expandKey appends the expansion-memo key for extending base at level lvl:
// the Study's direction (1 = top-down) and strategy — a study search and a
// product search may share one Engine's memo — the option knobs that shape
// enumeration, the step budget where it can bind (top-down; bottom-up passes
// 0), and the base row itself, every field a varint. The row is finer than the canonical render the key
// used to embed — it also tells apart bases that differ in the order of a
// level whose loops all still have bound 1, which the expansion copies into
// its candidates. Knobs that only affect scoring or selection — objective,
// beam, alpha slack, threads — are deliberately absent: they do not change
// what an expansion produces.
func (sc *search) expandKey(b []byte, lvl, budget int, base []int) []byte {
	o, dir := sc.opt, 0
	if sc.study.TopDown {
		dir = 1
	}
	for _, v := range [...]int{dir, int(sc.study.Strategy), lvl, budget, o.TilesPerStep, o.UnrollsPerStep} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, math.Float64bits(o.MinUtilization))
	for _, v := range base {
		b = binary.AppendUvarint(b, uint64(v+1)) // noOrder is -1
	}
	return b
}

// enumerateTiles runs the tiling tree for level l of the workspace's partial
// mapping over the given dimensions, checking capacity feasibility from level
// l up, and returns the surviving factor vectors (tile.Walker.Walk's rows,
// valid until the workspace's next walk). Level l's temporal row is probed in
// place and restored. It leaves the workspace's fitChecker reset for level
// l's temporal row — what residualFill on the same state needs. A canceled
// context makes the predicate reject everything, which collapses the
// remaining tree growth within a few dozen probes.
func (sc *search) enumerateTiles(ctx context.Context, ws *workspace, l int, walk *dimList) ([]int, tile.Stats) {
	dt, p := &sc.comp.dims, &ws.p
	ws.fc.reset(p, l, false)
	// The factor budget not yet assigned anywhere in the mapping: lower
	// tiles, this level's spatial factors, and — because unrolling precedes
	// tiling — the next level's spatial factors all count against it.
	for k, i := range walk.idx {
		ws.quota[k] = ceilDiv(dt.bound[i], p.extent(i, 0, p.nl))
	}
	trow := p.trow(l)
	copy(ws.saved, trow)
	ws.poll = anytime.Poller{Ctx: ctx, Every: 64}
	ws.tileLevel, ws.tileDims = l, walk.idx
	rows, stats := ws.tw.Walk(tile.Vec{
		Dims:          walk.names,
		Quota:         ws.quota[:len(walk.idx)],
		Fits:          ws.tileFits,
		Ladder:        ws.ladder,
		MaxCandidates: sc.opt.TilesPerStep,
	})
	copy(trow, ws.saved)
	return rows, stats
}

// residualFill deterministically grows the non-grow dimensions of the tile
// at level l into whatever capacity the OP-maximal tile left free. The
// Tiling Principle requires maximality only along OP's indexing dimensions;
// enlarging other dimensions within the remaining space moves upper-level
// loops into the tile and can only add intra-tile reuse, so it is a pure
// completion (no branching, not counted as search-space growth). Reduction
// dimensions fill first — keeping partial sums resident longest — then the
// rest in canonical order. inGrow marks the dimensions to leave alone (nil =
// none). The workspace's fitChecker must be reset for level l's temporal row.
func (sc *search) residualFill(ws *workspace, l int, inGrow []bool) {
	dt, p := &sc.comp.dims, &ws.p
	trow := p.trow(l)
	for _, i := range dt.fill {
		if inGrow != nil && inGrow[i] {
			continue
		}
		ladder := ws.ladder(ceilDiv(dt.bound[i], p.extent(i, 0, p.nl)), tile.DefaultMinLadderDivisors)
		for k := len(ladder) - 1; k >= 0; k-- {
			f := ladder[k]
			if f <= trow[i] {
				break
			}
			old := trow[i]
			trow[i] = f
			if ws.fc.fits(trow) {
				break
			}
			trow[i] = old
		}
	}
}

// unrollAt appends to dst the level-lvl spatial row of each candidate
// unrolling of the workspace's partial mapping over the allowed dimensions,
// keeping only capacity-feasible extensions. Enumeration-tree rejects and
// capacity-infeasible unrollings are added to *pruned.
func (sc *search) unrollAt(ws *workspace, lvl int, allowed *dimList, dst []int, pruned *int) []int {
	dt, p := &sc.comp.dims, &ws.p
	// The factor budget above level lvl-1, given the extents fixed below.
	for k, i := range allowed.idx {
		ws.quota[k] = ceilDiv(dt.bound[i], p.extent(i, 0, lvl))
	}
	return sc.unrollRows(ws, lvl, allowed, sc.opt.UnrollsPerStep, true, dst, pruned)
}

// unrollRows runs the unrolling enumeration at level lvl over dims (quotas in
// ws.quota) and appends to dst, per candidate, the level's spatial row with
// the candidate written in. With checkFit, candidates whose extension
// overflows a buffer at levels [lvl, top) are dropped and counted in *pruned
// along with the enumeration-tree rejects. When nothing is kept the current
// row is: the empty unrolling is always feasible if the partial mapping was.
// The partial mapping is left as it was.
func (sc *search) unrollRows(ws *workspace, lvl int, dims *dimList, maxCandidates int, checkFit bool, dst []int, pruned *int) []int {
	p := &ws.p
	rows, ustats := ws.uw.Walk(sc.unrollVec(ws, lvl, dims, maxCandidates))
	*pruned += ustats.NodesVisited - ustats.Survivors
	if checkFit {
		ws.fc.reset(p, lvl, true)
	}
	srow := p.srow(lvl)
	copy(ws.saved, srow)
	for r := 0; r < ustats.Survivors; r++ {
		for k, i := range dims.idx {
			if f := rows[r*len(dims.idx)+k]; f > 1 {
				srow[i] = f
			}
		}
		if !checkFit || ws.fc.fits(srow) {
			dst = append(dst, srow...)
		} else {
			*pruned++
		}
		copy(srow, ws.saved)
	}
	if len(dst) == 0 {
		dst = append(dst, srow...)
	}
	return dst
}

// unrollVec is the unrolling enumeration at level lvl over the given
// dimensions, with the per-dimension quotas already in ws.quota.
func (sc *search) unrollVec(ws *workspace, lvl int, dims *dimList, maxCandidates int) unroll.Vec {
	al := &sc.comp.a.Levels[lvl]
	return unroll.Vec{
		Dims:                  dims.names,
		Quota:                 ws.quota[:len(dims.idx)],
		Reduction:             dims.reduction,
		Ladder:                ws.ladder,
		Fanout:                al.Fanout,
		MinUtilization:        sc.opt.MinUtilization,
		AllowSpatialReduction: al.AllowSpatialReduction,
		MaxCandidates:         maxCandidates,
	}
}

// unguidedTileEffort counts the tiling-tree nodes an ordering-last strategy
// visits: the tree grown along every dimension, no Tiling Principle filter.
func (sc *search) unguidedTileEffort(ctx context.Context, ws *workspace, base []int, l int) int {
	ws.load(base)
	_, stats := sc.enumerateTiles(ctx, ws, l, &sc.comp.dims.all)
	return stats.NodesVisited
}

// unguidedUnrollEffort counts the unrolling candidates an ordering-last
// strategy enumerates at this step's spatial levels without the Unrolling
// Principle filter.
func (sc *search) unguidedUnrollEffort(ws *workspace, base []int, l int) int {
	dt := &sc.comp.dims
	ws.load(base)
	n := 0
	for _, lvl := range []int{0, l + 1} {
		if lvl == 0 && l != 0 {
			continue
		}
		if sc.comp.a.Levels[lvl].Fanout <= 1 {
			continue
		}
		for k, i := range dt.all.idx {
			ws.quota[k] = ceilDiv(dt.bound[i], ws.p.extent(i, 0, lvl))
		}
		_, stats := ws.uw.Walk(sc.unrollVec(ws, lvl, &dt.all, 0))
		n += stats.NodesVisited
	}
	return n
}
