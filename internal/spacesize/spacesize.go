// Package spacesize estimates the mapping-space size each tool optimizes
// over, reproducing Table I of the paper for a given workload/architecture
// pair.
//
// Following the table's structure, each tool's space is the product of
//
//   - its temporal tiling choices: ordered factorizations of each problem
//     dimension it considers across the temporal levels;
//   - its spatial unrolling choices: factor assignments (product <= fanout)
//     over the dimensions it allows at each spatial level;
//   - a documented pruning discount for tools that cut the space with
//     heuristics (Marvel's off-chip/on-chip decoupling, dMazeRunner's
//     utilization thresholds, Interstellar's full-throughput requirement).
//
// As in the paper these are *estimates* of the space a tool's formulation
// spans — not the number of points a particular run visits (Sunstone's
// actual visit count is reported separately by core.Result.SpaceSize). The
// absolute values depend on the layer; the orders-of-magnitude relations of
// Table I (Timeloop/CoSA >> Marvel/Interstellar >> dMazeRunner >> Sunstone)
// are what the estimators preserve, and what the tests assert.
package spacesize

import (
	"context"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/factor"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
)

// Estimate is one Table I row.
type Estimate struct {
	Tool string
	// TemporalDims / UnrollDims are the dimension counts the tool uses per
	// temporal level / spatial level (Table I rows 1-2).
	TemporalDims int
	UnrollDims   int
	// Size is the estimated space size.
	Size float64
	// Note summarizes the tool's pruning (Table I row 3).
	Note string
}

// Table1 computes the per-tool estimates for workload w on architecture a.
func Table1(w *tensor.Workload, a *arch.Arch) []Estimate {
	nDims := len(w.Dims)
	temporalLevels := len(a.Levels)
	var spatialFanouts []int
	for i := range a.Levels {
		if a.Levels[i].Fanout > 1 {
			spatialFanouts = append(spatialFanouts, a.Levels[i].Fanout)
		}
	}

	allDims := w.Order
	reduction := map[tensor.Dim]bool{}
	for _, d := range w.ReductionDims() {
		reduction[d] = true
	}
	var nonReduction []tensor.Dim
	for _, d := range allDims {
		if !reduction[d] {
			nonReduction = append(nonReduction, d)
		}
	}
	var channels []tensor.Dim
	for _, d := range []tensor.Dim{"C", "K"} {
		if _, ok := w.Dims[d]; ok {
			channels = append(channels, d)
		}
	}

	// Sunstone's per-level dimensions: the indexing dims of a reused
	// operand — take the largest grow set over the surviving orderings.
	orderings, _ := order.Enumerate(w)
	reuseDims := sunstoneReuseDims(w, orderings)

	tilings := func(dims []tensor.Dim, slots int) float64 {
		p := 1.0
		for _, d := range dims {
			p *= float64(factor.NumSplitsK(factor.Pad(w.Dims[d], 4), slots))
		}
		return p
	}
	unrollings := func(dims []tensor.Dim) float64 {
		p := 1.0
		for _, fan := range spatialFanouts {
			per := 1.0
			for _, d := range dims {
				n := 0
				for _, v := range factor.Divisors(factor.Pad(w.Dims[d], 4)) {
					if v <= fan {
						n++
					}
				}
				per *= float64(n)
			}
			p *= per
		}
		return p
	}

	tlSize := tilings(allDims, temporalLevels) * unrollings(allDims)

	// Marvel decouples off-chip from on-chip: the two sub-spaces add
	// instead of multiplying, and high-buffer-utilization pruning keeps
	// roughly the maximal tiles at the on-chip levels (one representative
	// choice per dimension ordering of growth, ~ slots^dims of the full
	// factorization product).
	marvelOff := tilings(allDims, 2)
	marvelOn := tilings(allDims, temporalLevels-1) * unrollings(allDims) / tilings(allDims, 1)
	marvelSize := marvelOff + marvelOn

	interSize := tilings(allDims, temporalLevels) * unrollings(channels)

	// dMazeRunner: utilization thresholds keep only near-maximal tiles at
	// each bounded level — one ladder position per dimension survives per
	// level in expectation, leaving the ordering/unrolling cross products.
	dmazeSize := tilings(allDims, 2) / float64(nDims) * unrollings(nonReduction) / tilings(nonReduction, 1)

	// Sunstone's space needs no estimate: the search is small enough to
	// run, so its row reports the measured candidate count.
	sunSize := 1.0
	if res, err := core.Solve(context.Background(), core.Problem{Workload: w, Arch: a}, core.Options{}); err == nil {
		sunSize = float64(res.SpaceSize)
	}

	return []Estimate{
		{Tool: "Timeloop", TemporalDims: nDims, UnrollDims: nDims, Size: tlSize,
			Note: "no pruning"},
		{Tool: "CoSA", TemporalDims: nDims, UnrollDims: nDims, Size: tlSize,
			Note: "same space; linear approximation lets a one-shot solver skip the search"},
		{Tool: "Marvel", TemporalDims: nDims, UnrollDims: nDims, Size: marvelSize,
			Note: "decoupled off-chip and on-chip, high buffer utilization"},
		{Tool: "Interstellar", TemporalDims: nDims, UnrollDims: len(channels), Size: interSize,
			Note: "input/output channel unrolling, high throughput"},
		{Tool: "dMazeRunner", TemporalDims: nDims, UnrollDims: len(nonReduction), Size: dmazeSize,
			Note: "high buffer utilization, high throughput"},
		{Tool: "Sunstone", TemporalDims: len(reuseDims), UnrollDims: len(reuseDims), Size: sunSize,
			Note: "alpha-beta, high throughput; only the reuse dimensions per level"},
	}
}

// sunstoneReuseDims returns the union-maximum grow set across the pruned
// orderings: the dimensions Sunstone ever needs at one level (4 for the
// Table I convolution example).
func sunstoneReuseDims(w *tensor.Workload, orderings []order.Ordering) []tensor.Dim {
	best := []tensor.Dim{}
	for i := range orderings {
		set := map[tensor.Dim]bool{}
		for _, name := range orderings[i].FullyReused {
			t := w.Tensor(name)
			if t == nil {
				continue
			}
			for _, d := range t.IndexingDims() {
				set[d] = true
			}
		}
		if len(set) > len(best) {
			best = best[:0]
			for _, d := range w.Order {
				if set[d] {
					best = append(best, d)
				}
			}
		}
	}
	if len(best) == 0 {
		best = append(best, w.Order...)
	}
	return best
}
