// Package unroll generates spatial-unrolling candidates under Sunstone's
// Unrolling Principle (Section III-B of the paper).
//
// For a parallel level between memories X and X-1, where the loop ordering
// at X temporally reuses operand OP across tiles, unrolling a *non-indexing*
// dimension of OP would spend the spatial fanout reusing a tensor whose
// upper-level accesses are already minimized. The principle therefore
// restricts unrolling candidates to OP's indexing dimensions, steering the
// spatial reuse toward the other tensors. On ResNet-18 and a 14x12 PE array
// this prunes >90% of the unrolling space (paper, Section III-B).
//
// A "high-throughput" filter additionally discards assignments that leave
// too much of the fanout idle, and maximal assignments dominate smaller ones
// along the same dimensions.
package unroll

import (
	"cmp"
	"slices"

	"sunstone/internal/factor"
	"sunstone/internal/tensor"
	"sunstone/internal/tile"
)

// Candidate is one spatial unrolling: per-dimension factors across the
// level's fanout. It reuses tile.Candidate's representation.
type Candidate = tile.Candidate

// Space describes one unrolling enumeration.
type Space struct {
	// Allowed lists the dimensions the Unrolling Principle admits
	// (indexing dimensions of the temporally-reused operand). Empty means
	// all dimensions.
	Allowed []tensor.Dim
	// ReductionDims lists the workload's reduction dimensions; they are
	// excluded unless AllowSpatialReduction.
	ReductionDims []tensor.Dim
	// Quota is the remaining factor budget per dimension.
	Quota map[tensor.Dim]int
	// Fanout is the number of parallel child instances at this level.
	Fanout int
	// MinUtilization is the high-throughput threshold: candidates using
	// less than this fraction of the fanout are pruned, unless nothing
	// meets it (then the best-utilization candidates are returned).
	MinUtilization float64
	// AllowSpatialReduction permits unrolling reduction dimensions
	// (requires hardware partial-sum combining).
	AllowSpatialReduction bool
	// MaxCandidates truncates the result to the highest-utilization
	// assignments when positive.
	MaxCandidates int
}

// Stats reports enumeration effort.
type Stats struct {
	NodesVisited int
	Survivors    int
}

// Enumerate returns the maximal spatial unrollings meeting the constraints,
// always including at least the empty unrolling (factor 1 everywhere) when
// nothing else qualifies.
//
// It is the map-keyed front of Walker.Walk: the enumeration runs over factor
// vectors and a Candidate map is materialized per returned unrolling.
func Enumerate(s Space) ([]Candidate, Stats) {
	dims := append([]tensor.Dim(nil), s.Allowed...)
	if len(dims) == 0 {
		for d := range s.Quota {
			dims = append(dims, d)
		}
	}
	slices.Sort(dims)
	quota := make([]int, len(dims))
	reduction := make([]bool, len(dims))
	for i, d := range dims {
		quota[i] = s.Quota[d]
		reduction[i] = slices.Contains(s.ReductionDims, d)
	}
	var wk Walker
	rows, stats := wk.Walk(Vec{
		Dims:                  dims,
		Quota:                 quota,
		Reduction:             reduction,
		Fanout:                s.Fanout,
		MinUtilization:        s.MinUtilization,
		AllowSpatialReduction: s.AllowSpatialReduction,
		MaxCandidates:         s.MaxCandidates,
	})
	out := make([]Candidate, stats.Survivors)
	for i := range out {
		out[i] = Candidate{}
		for j, f := range rows[i*len(dims) : (i+1)*len(dims)] {
			if f > 1 {
				out[i][dims[j]] = f
			}
		}
	}
	return out, stats
}

// Vec is an unrolling enumeration over factor vectors — the form the search
// drives directly, with no map per call. Every slice is parallel to Dims and
// only read.
type Vec struct {
	// Dims are the admitted dimensions, sorted by name (the enumeration
	// recurses over them in this order).
	Dims []tensor.Dim
	// Quota is the remaining factor budget per dimension; dimensions with
	// quota 1 or less are not unrolled.
	Quota []int
	// Reduction marks the workload's reduction dimensions; they are not
	// unrolled unless AllowSpatialReduction.
	Reduction []bool
	// Ladder, when non-nil, supplies divisor ladders instead of
	// factor.Ladder (see tile.Vec.Ladder).
	Ladder func(n, minDivisors int) []int
	// Fanout, MinUtilization, AllowSpatialReduction and MaxCandidates are
	// Space's.
	Fanout                int
	MinUtilization        float64
	AllowSpatialReduction bool
	MaxCandidates         int
}

// Walker owns the scratch of unrolling enumerations (see tile.Walker). The
// zero value is ready; a Walker is not safe for concurrent use.
type Walker struct {
	fanout  int
	visited int

	pos     []int   // positions in Vec.Dims of the usable dimensions
	ladders [][]int // per usable dimension
	rung    []int   // current ladder index per usable dimension
	fs      []int   // current factor per Vec.Dims position (1 = not unrolled)

	maximal []int // factor vectors of the maximal assignments, in discovery order
	prods   []int
	names   tile.KeyArena
	order   []int
	rows    []int
}

// Walk enumerates the maximal high-throughput unrollings of v. The result
// holds one factor vector per survivor (Stats.Survivors of them, len(v.Dims)
// entries each) in the order Enumerate returns its Candidates; it aliases the
// walker's scratch and is valid until the next Walk.
func (wk *Walker) Walk(v Vec) ([]int, Stats) {
	n := len(v.Dims)
	wk.fs = wk.fs[:0]
	for i := 0; i < n; i++ {
		wk.fs = append(wk.fs, 1)
	}
	if v.Fanout <= 1 {
		return wk.fs, Stats{NodesVisited: 1, Survivors: 1}
	}
	ladder := v.Ladder
	if ladder == nil {
		ladder = factor.Ladder
	}
	wk.pos, wk.ladders, wk.rung = wk.pos[:0], wk.ladders[:0], wk.rung[:0]
	for i := 0; i < n; i++ {
		if (v.Reduction[i] && !v.AllowSpatialReduction) || v.Quota[i] <= 1 {
			continue
		}
		// Exact divisors only (minDivisors 2 disables padding): a padded
		// spatial factor wastes PEs on every single pass, unlike a padded
		// tile which can amortize.
		wk.pos = append(wk.pos, i)
		wk.ladders = append(wk.ladders, ladder(min(v.Quota[i], v.Fanout), 2))
		wk.rung = append(wk.rung, 0)
	}
	wk.fanout, wk.visited = v.Fanout, 0
	wk.maximal, wk.prods = wk.maximal[:0], wk.prods[:0]
	wk.rec(0, 1)

	// High-throughput filter over the maximal assignments; the ones that
	// pass are compacted to the front so that keys are rendered for them only.
	best := 0.0
	for _, p := range wk.prods {
		best = max(best, float64(p)/float64(v.Fanout))
	}
	thresh := v.MinUtilization
	if best < thresh {
		thresh = best // nothing qualifies; fall back to the best available
	}
	wk.names.Reset(v.Dims)
	wk.order = wk.order[:0]
	for i, p := range wk.prods {
		if float64(p)/float64(v.Fanout) < thresh {
			continue
		}
		k := len(wk.order)
		copy(wk.maximal[k*n:(k+1)*n], wk.maximal[i*n:(i+1)*n])
		wk.prods[k] = p
		wk.names.Add(wk.maximal[k*n : (k+1)*n])
		wk.order = append(wk.order, k)
	}
	if v.MaxCandidates > 0 && len(wk.order) > v.MaxCandidates {
		slices.SortFunc(wk.order, func(a, b int) int {
			if c := cmp.Compare(wk.prods[b], wk.prods[a]); c != 0 {
				return c // higher utilization first
			}
			return wk.names.Compare(a, b)
		})
		wk.order = wk.order[:v.MaxCandidates]
	}
	slices.SortFunc(wk.order, wk.names.Compare)
	wk.rows = wk.rows[:0]
	for _, i := range wk.order {
		wk.rows = append(wk.rows, wk.maximal[i*n:(i+1)*n]...)
	}
	return wk.rows, Stats{NodesVisited: wk.visited, Survivors: len(wk.order)}
}

// rec assigns usable dimension i every ladder factor that keeps the running
// product within the fanout. A complete assignment is kept when it is
// maximal: no dimension can be raised a rung and still fit the fanout (a
// dominated assignment leaves PEs idle that a sibling uses).
func (wk *Walker) rec(i, product int) {
	wk.visited++
	if i == len(wk.pos) {
		for j, l := range wk.ladders {
			if r := wk.rung[j] + 1; r < len(l) && product/l[r-1]*l[r] <= wk.fanout {
				return
			}
		}
		wk.maximal = append(wk.maximal, wk.fs...)
		wk.prods = append(wk.prods, product)
		return
	}
	for r, f := range wk.ladders[i] {
		if product*f > wk.fanout {
			break
		}
		wk.fs[wk.pos[i]], wk.rung[i] = f, r
		wk.rec(i+1, product*f)
	}
	wk.fs[wk.pos[i]], wk.rung[i] = 1, 0
}
