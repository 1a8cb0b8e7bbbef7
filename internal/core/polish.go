package core

import (
	"context"

	"sunstone/internal/anytime"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
)

// polish refines the best mapping found by the level-by-level search with
// local moves: loop-ordering swaps, single-prime factor moves (between two
// temporal levels, or from a temporal level into an under-utilized spatial
// fanout), and spatial prime swaps. The beam search's per-level
// decomposition is near-optimal but can leave small cross-level imbalances;
// a few dozen local moves recover them at a cost of a few hundred
// evaluations (counted in the returned total).
//
// The climb is batched steepest descent: each round generates the full
// deterministic move neighborhood of the current mapping, scores it through
// the same parallel fan-out the beam search uses (evalAll — per-worker
// scratch evaluators, shared memo cache absorbing re-proposed neighbors),
// and accepts the single best strictly-improving move (ties broken by the
// candidates' canonical render, exactly like beam selection). Because the
// accepted move depends only on the scored set — never on evaluation order —
// the polished mapping is bit-identical at any thread count.
//
// Polish is inherently anytime — the input mapping is already complete and
// every accepted move only improves it — so cancellation simply stops the
// climb wherever it is and reports the reason. Panicking evaluations are
// contained per candidate (the move scores invalid) and surfaced to the
// caller for Result.CandidateErrors.
func polish(ctx context.Context, sc *search, best *mapping.Mapping, bestScore, bestEnergyPJ, bestCycles float64, orderings []order.Ordering) (*mapping.Mapping, float64, float64, int, []error, StopReason) {
	cur := best
	curScore, curEnergyPJ, curCycles := bestScore, bestEnergyPJ, bestCycles
	evals := 0
	var errs []error
	// Steepest descent accepts one move per round, so rounds bound the
	// accepted-move chain; typical climbs converge in a handful.
	const maxRounds = 32
	poll := &anytime.Poller{Ctx: ctx}

	for round := 0; round < maxRounds; round++ {
		if poll.Stop() != StopComplete {
			break
		}
		moves := polishMoves(cur, orderings)
		if len(moves) == 0 {
			break
		}
		// Every proposed move is generated and (unless the context ends
		// mid-batch) evaluated — the same flow accounting as the serial
		// climb, charged per batch.
		sc.ctr.Generated.Add(uint64(len(moves)))
		scored, panics := sc.evalAll(ctx, moves, func(_ *workspace, m *mapping.Mapping) *mapping.Mapping { return m })
		evals += len(moves)
		for _, e := range panics {
			errs = append(errs, e)
		}
		top := scored[0]
		if !top.valid || top.score >= curScore*(1-1e-12) {
			break // local optimum (or nothing evaluable): fixpoint reached
		}
		cur = top.m
		curScore, curEnergyPJ, curCycles = top.score, top.energyPJ, top.cycles
		sc.prog.incumbent("polish", -1, cur, curScore, curEnergyPJ, curCycles)
	}
	return cur, curEnergyPJ, curCycles, evals, errs, poll.Stop()
}

// polishMoves generates the full local-move neighborhood of cur in a
// deterministic order (the canonical dimension and level orders — map
// iteration order never leaks in). The batch is scored in parallel, so
// unlike the historical first-improvement sweep, every move is proposed
// against the same base mapping.
func polishMoves(cur *mapping.Mapping, orderings []order.Ordering) []*mapping.Mapping {
	var moves []*mapping.Mapping

	// Ordering moves: re-pick any level's loop order from the trie.
	for l := 1; l < len(cur.Levels); l++ {
		for oi := range orderings {
			cand := cur.Clone()
			cand.Levels[l].Order = orderings[oi].Complete(cur.Workload)
			moves = append(moves, cand)
		}
	}

	// Factor moves: shift one prime of one dimension between levels.
	for _, d := range cur.Workload.Order {
		for src := 0; src < len(cur.Levels); src++ {
			tSrc := cur.Levels[src].T(d)
			if tSrc <= 1 {
				continue
			}
			for _, p := range uniquePrimes(tSrc) {
				for dst := 0; dst < len(cur.Levels); dst++ {
					if dst == src {
						continue
					}
					cand := cur.Clone()
					cand.Levels[src].Temporal[d] = tSrc / p
					cand.Levels[dst].Temporal[d] = cand.Levels[dst].T(d) * p
					moves = append(moves, cand)
					// Spatial variant: move the prime into dst's fanout.
					if cur.Arch.Levels[dst].Fanout > 1 {
						cand2 := cur.Clone()
						cand2.Levels[src].Temporal[d] = tSrc / p
						cand2.Levels[dst].Spatial[d] = cand2.Levels[dst].S(d) * p
						moves = append(moves, cand2)
					}
				}
			}
		}
	}

	// Spatial swaps: replace one prime of a spatially-unrolled dimension
	// with a prime of another dimension taken from a temporal level —
	// the move a single-prime shift cannot express (e.g. retiring an R3
	// unroll in favor of P4 across the same fanout).
	for l := 0; l < len(cur.Levels); l++ {
		if cur.Arch.Levels[l].Fanout <= 1 {
			continue
		}
		for _, d1 := range cur.Workload.Order {
			s1 := cur.Levels[l].S(d1)
			if s1 <= 1 {
				continue
			}
			for _, p := range uniquePrimes(s1) {
				for _, d2 := range cur.Workload.Order {
					if d2 == d1 {
						continue
					}
					for src := 0; src < len(cur.Levels); src++ {
						tSrc := cur.Levels[src].T(d2)
						if tSrc <= 1 {
							continue
						}
						for _, q := range uniquePrimes(tSrc) {
							if cur.Levels[l].SpatialProduct()/p*q > cur.Arch.Levels[l].Fanout {
								continue
							}
							cand := cur.Clone()
							cand.Levels[l].Spatial[d1] = s1 / p
							cand.Levels[l].Temporal[d1] = cand.Levels[l].T(d1) * p
							cand.Levels[src].Temporal[d2] = tSrc / q
							cand.Levels[l].Spatial[d2] = cand.Levels[l].S(d2) * q
							moves = append(moves, cand)
						}
					}
				}
			}
		}
	}
	return moves
}

// uniquePrimes returns the distinct prime factors of n.
func uniquePrimes(n int) []int {
	var out []int
	last := 0
	for _, p := range factor.Primes(n) {
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	return out
}
