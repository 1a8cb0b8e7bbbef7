package core

import (
	"context"

	"sunstone/internal/anytime"
	"sunstone/internal/factor"
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
//
// Like the beam it runs on rows: a move is a copy of the current row with a
// few entries edited — a level's loop order re-picked by compiled-ordering
// index, a prime shifted between factor entries — in one arena per round. It
// returns the polished row, or nil when no move was accepted; a Mapping is
// built here only for an accepted move whose progress event is delivered.
func polish(ctx context.Context, sc *search, best []int, bestScore, bestEnergyPJ, bestCycles float64) ([]int, float64, float64, int, []error, StopReason) {
	cur := best
	var accepted []int // cur's own storage once a move is accepted: the arena is rewritten every round
	curScore, curEnergyPJ, curCycles := bestScore, bestEnergyPJ, bestCycles
	evals := 0
	var errs []error
	// Steepest descent accepts one move per round, so rounds bound the
	// accepted-move chain; typical climbs converge in a handful.
	const maxRounds = 32
	poll := &anytime.Poller{Ctx: ctx}
	stride := len(best)
	var arena []int
	var moves []cand

	for round := 0; round < maxRounds; round++ {
		if poll.Stop() != StopComplete {
			break
		}
		arena = sc.polishMoves(cur, arena[:0])
		if len(arena) == 0 {
			break
		}
		moves = moves[:0]
		for lo := 0; lo < len(arena); lo += stride {
			moves = append(moves, cand{row: arena[lo : lo+stride : lo+stride]})
		}
		// Every proposed move is generated and (unless the context ends
		// mid-batch) evaluated — the same flow accounting as the serial
		// climb, charged per batch.
		sc.ctr.Generated.Add(uint64(len(moves)))
		scored, panics := sc.evalAll(ctx, moves, nil)
		evals += len(moves)
		for _, e := range panics {
			errs = append(errs, e)
		}
		top := scored[0]
		if !top.valid || top.score >= curScore*(1-1e-12) {
			break // local optimum (or nothing evaluable): fixpoint reached
		}
		accepted = append(accepted[:0], top.row...)
		cur = accepted
		curScore, curEnergyPJ, curCycles = top.score, top.energyPJ, top.cycles
		if sc.prog.admit(curScore, curEnergyPJ, curCycles) {
			sc.prog.report("polish", -1, sc.materialize(cur))
		}
	}
	return accepted, curEnergyPJ, curCycles, evals, errs, poll.Stop()
}

// polishMoves appends to arena the full local-move neighborhood of the
// complete mapping in row cur, one row per move, in a deterministic order
// (the canonical dimension and level orders). The batch is scored in
// parallel, so unlike the historical first-improvement sweep, every move is
// proposed against the same base mapping.
func (sc *search) polishMoves(cur []int, arena []int) []int {
	a, sh := sc.comp.a, sc.comp.shape
	nd, nl := sh.nd, sh.nl
	c := sh.view(cur)
	// move appends a copy of cur and returns its views for editing.
	move := func() partial {
		arena = append(arena, cur...)
		return sh.view(arena[len(arena)-len(cur):])
	}

	// Ordering moves: re-pick any level's loop order from the trie.
	for l := 1; l < nl; l++ {
		for oi := range sc.comp.dims.orderings {
			move().ord[l] = oi
		}
	}

	// Factor moves: shift one prime of one dimension between levels.
	for i := 0; i < nd; i++ {
		for src := 0; src < nl; src++ {
			tSrc := c.t[src*nd+i]
			if tSrc <= 1 {
				continue
			}
			for _, p := range uniquePrimes(tSrc) {
				for dst := 0; dst < nl; dst++ {
					if dst == src {
						continue
					}
					m := move()
					m.t[src*nd+i] = tSrc / p
					m.t[dst*nd+i] *= p
					// Spatial variant: move the prime into dst's fanout.
					if a.Levels[dst].Fanout > 1 {
						m := move()
						m.t[src*nd+i] = tSrc / p
						m.s[dst*nd+i] *= p
					}
				}
			}
		}
	}

	// Spatial swaps: replace one prime of a spatially-unrolled dimension
	// with a prime of another dimension taken from a temporal level —
	// the move a single-prime shift cannot express (e.g. retiring an R3
	// unroll in favor of P4 across the same fanout).
	for l := 0; l < nl; l++ {
		if a.Levels[l].Fanout <= 1 {
			continue
		}
		spatial := c.spatialProduct(l)
		for d1 := 0; d1 < nd; d1++ {
			s1 := c.s[l*nd+d1]
			if s1 <= 1 {
				continue
			}
			for _, p := range uniquePrimes(s1) {
				for d2 := 0; d2 < nd; d2++ {
					if d2 == d1 {
						continue
					}
					for src := 0; src < nl; src++ {
						tSrc := c.t[src*nd+d2]
						if tSrc <= 1 {
							continue
						}
						for _, q := range uniquePrimes(tSrc) {
							if spatial/p*q > a.Levels[l].Fanout {
								continue
							}
							m := move()
							m.s[l*nd+d1] = s1 / p
							m.t[l*nd+d1] *= p
							m.t[src*nd+d2] = tSrc / q
							m.s[l*nd+d2] *= q
						}
					}
				}
			}
		}
	}
	return arena
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
