package core

import "sunstone/internal/cost"

// fitChecker is the search's capacity oracle over a partial mapping in
// integer form. Every enumeration stage varies one row of the factor matrix —
// the tiling tree and the residual fill level l's temporal factors, the
// unrolling post-filter level l's spatial factors — while everything else
// stays fixed, so reset folds the fixed part into per-level base extents once
// and each probe is then a multiply per dimension and level plus the cost
// session's LevelFits — the one dense capacity table, which the evaluator's
// legality check runs through too: no maps, no allocation. The answer is
// exactly what writing the row into a mapping.Mapping and summing map-derived
// footprints gives (the test-side feasible; see
// TestFitCheckerMatchesFeasible). Top-down's remainder probes have their
// extents already and call LevelFits directly.
type fitChecker struct {
	sess *cost.Session
	nd   int
	from int   // first checked level; the checked levels are [from, top)
	base []int // [(L-from)*nd + i]: extent of dimension i at level L without the probed row
	ext  []int // probe scratch
}

// reset prepares probes of p that vary level lvl's spatial (or temporal) row
// and check levels [lvl, top).
func (fc *fitChecker) reset(p *partial, lvl int, spatial bool) {
	nd, top := p.nd, p.nl-1
	fc.nd, fc.from = nd, lvl
	fc.base = fc.base[:0]
	if cap(fc.ext) < nd {
		fc.ext = make([]int, nd)
	}
	acc := fc.ext[:nd] // running extent per dimension; free until the first probe
	for i := range acc {
		acc[i] = 1
	}
	for L := 0; L < top; L++ {
		t, s := p.trow(L), p.srow(L)
		for i := range acc {
			switch {
			case L != lvl:
				acc[i] *= t[i] * s[i]
			case spatial:
				acc[i] *= t[i]
			default:
				acc[i] *= s[i]
			}
		}
		if L >= lvl {
			fc.base = append(fc.base, acc...)
		}
	}
}

// fits reports whether the partial mapping of the last reset, with row as the
// probed row, fits every bounded buffer at the checked levels.
func (fc *fitChecker) fits(row []int) bool {
	nd := fc.nd
	for k := 0; k*nd < len(fc.base); k++ {
		base := fc.base[k*nd : (k+1)*nd]
		ext := fc.ext[:nd]
		for i, f := range row {
			ext[i] = base[i] * f
		}
		if !fc.sess.LevelFits(fc.from+k, ext) {
			return false
		}
	}
	return true
}
