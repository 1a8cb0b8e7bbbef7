package core

// This file holds the top-down expansion machinery — the variant Table VI
// compares against. At step m it assigns the loop order, temporal factors
// and spatial unrolling of level m; the extents remaining below level m are
// then fully determined, so level m-1's capacity can be checked. The
// branching at the first (DRAM) step is enormous because the large on-chip
// memories admit most factor splits — the paper's explanation for why this
// direction examines an order of magnitude more candidates — and the
// alpha-beta estimates are looser because low-level access counts are
// unknown until the very end. The level-sequencing driver itself is shared
// with bottom-up — see stepper.go.

import (
	"context"

	"sunstone/internal/anytime"
	"sunstone/internal/tile"
)

// completeDownAt returns the top-down scoring completion for candidates
// whose remaining factors land in the level-lvl tile (lower levels stay 1):
// per dimension, the extent forced at lvl when every factor above it is
// assigned — bound / (product above). For lvl < 0 — the final step — the
// mapping is complete as-is.
func (sc *search) completeDownAt(lvl int) completeFn {
	return func(ws *workspace, row []int) {
		dt, p := &sc.comp.dims, &ws.p
		ws.load(row)
		if lvl >= 0 {
			trow := p.trow(lvl)
			for i, bound := range dt.bound {
				if e := ceilDiv(bound, p.extent(i, lvl+1, p.nl)); e > 1 {
					trow[i] = e
				}
			}
		}
	}
}

// expandTopUnit is the sequencer's per-(state, ordering) expansion unit for
// the top-down direction. Every visited node is either an emitted
// candidate (evaluated downstream) or a tiling reject; unrolling rejects are
// tallied separately. All tallies are accumulated locally in the returned
// unitOut and flushed once per beam state by the driver (via
// replayExpansion) — the enumeration recursion can visit millions of nodes,
// so it must never touch an atomic per node.
//
// The budget is this unit's pre-partitioned share of the step's visit
// budget (see expandStep): unlike the historical serial walk, where one
// greedy ordering could starve its siblings through the shared `remaining`
// counter, every unit's share is fixed up front, which is what makes the
// outcome independent of execution order and thread count. The unit reports
// truncated when its share expired before the enumeration finished.
func (sc *search) expandTopUnit(ctx context.Context, ws *workspace, base []int, m, oi, budget int) unitOut {
	var out unitOut
	tw := &ws.top
	tw.m, tw.budget, tw.visited = m, budget, 0
	tw.poll = anytime.Poller{Ctx: ctx, Every: 1024}
	if tw.poll.Stop() != StopComplete {
		return out
	}
	dt, p := &sc.comp.dims, &ws.p
	nd := p.nd

	ws.load(base)
	p.ord[m] = oi

	ws.high = append(ws.high[:0], p.srow(m)...)
	if sc.comp.a.Levels[m].Fanout > 1 {
		ws.high = sc.topDownUnroll(ws, m, ws.high[:0], &out.prunedUnrolling)
	}
	for hi := 0; hi < len(ws.high); hi += nd {
		srow := p.srow(m)
		copy(srow, ws.high[hi:hi+nd])
		tw.ladders, tw.cur, tw.ext, tw.extBase, tw.extRest = tw.ladders[:0], tw.cur[:0], tw.ext[:0], tw.extBase[:0], tw.extRest[:0]
		for i, bound := range dt.bound {
			// Budget for T(m): the remainder above level m, net of the
			// spatial factors just assigned at m.
			quota := ceilDiv(bound, p.extent(i, m+1, p.nl))
			if srow[i] > 1 {
				quota = ceilDiv(quota, srow[i])
			}
			tw.ladders = append(tw.ladders, ws.ladder(quota, tile.DefaultMinLadderDivisors))
			tw.cur = append(tw.cur, 1)
			// What remains for level m-1 before T(m) is assigned, and with
			// this dimension at its largest factor (smallest remainder).
			below := ceilDiv(bound, p.extent(i, m, p.nl))
			tw.extBase = append(tw.extBase, below)
			tw.extRest = append(tw.extRest, ceilDiv(below, quota))
		}
		tw.ext = append(tw.ext, tw.extRest...)
		tw.rec(0, &out)
	}
	out.visited = tw.visited
	out.prunedTiling = tw.visited - len(out.keys)
	out.truncated = tw.visited >= budget
	return out
}

// topWalk is the state of one unit's top-down factor enumeration: level m's
// temporal factors are assigned dimension by dimension in canonical order,
// and ext tracks what the assignment so far leaves for level m-1.
type topWalk struct {
	ws      *workspace
	m       int
	budget  int
	visited int
	poll    anytime.Poller

	ladders [][]int // per dimension, ascending; walked from the top
	cur     []int   // the factor assigned to each dimension so far
	// ext is the probe vector: level m-1's extent per dimension — extBase
	// divided by the assigned factor for assigned dimensions, extRest
	// (optimistically, the full quota taken at level m) for the rest.
	ext, extBase, extRest []int
}

// rec assigns dimension i and recurses. Ladders are walked descending: large
// top-level factors leave small remainders below, so the feasible region
// (remainder fits the next level) is reached before any visit budget expires.
func (tw *topWalk) rec(i int, out *unitOut) {
	if tw.visited >= tw.budget || tw.poll.Stop() != StopComplete {
		return
	}
	sess := tw.ws.comp.sess
	if i == len(tw.cur) {
		tw.visited++
		// Full capacity check before paying for a candidate.
		if !sess.LevelFits(tw.m-1, tw.ext) {
			return
		}
		trow := tw.ws.p.trow(tw.m)
		copy(tw.ws.saved, trow)
		for j, f := range tw.cur {
			if f > 1 {
				trow[j] = f
			}
		}
		tw.ws.emit(out)
		copy(trow, tw.ws.saved)
		return
	}
	ladder := tw.ladders[i]
	for k := len(ladder) - 1; k >= 0; k-- {
		tw.cur[i] = ladder[k]
		tw.ext[i] = ceilDiv(tw.extBase[i], ladder[k])
		// Sound subtree pruning: with unassigned dims at their largest
		// factors (smallest remainders), if the partial remainder already
		// overflows level m-1, no completion can fit.
		if !sess.LevelFits(tw.m-1, tw.ext) {
			tw.visited++
			continue
		}
		tw.rec(i+1, out)
	}
	tw.ext[i] = tw.extRest[i]
}

// topDownUnroll appends to dst the level-m spatial row of each candidate
// unrolling, enumerated without principle restrictions (top-down has no
// lower-level ordering fixed yet to derive OP from; this unguided enumeration
// is part of why its space is larger) and without a capacity filter (the
// levels below are still unassigned). Enumeration-tree rejects are added to
// *pruned.
func (sc *search) topDownUnroll(ws *workspace, m int, dst []int, pruned *int) []int {
	dt, p := &sc.comp.dims, &ws.p
	for k, i := range dt.all.idx {
		ws.quota[k] = ceilDiv(dt.bound[i], p.extent(i, m+1, p.nl))
	}
	return sc.unrollRows(ws, m, &dt.all, sc.opt.UnrollsPerStep*2, false, dst, pruned)
}
