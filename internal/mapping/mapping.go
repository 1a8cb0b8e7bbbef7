// Package mapping defines the dataflow-mapping representation shared by
// Sunstone and every baseline mapper, plus the legality validator used to
// flag the invalid mappings the paper reports for prior tools.
//
// A mapping assigns to each architecture storage level l (innermost first,
// index-aligned with arch.Arch.Levels):
//
//   - Temporal[d]: the bound of the temporal loop over dimension d at level
//     l — how many level-(l-1) tiles are traversed in time;
//   - Order: the innermost-first order of those temporal loops (the paper's
//     "loop reordering"; only loops with bound > 1 matter);
//   - Spatial[d]: the unroll factor of dimension d across the level's
//     spatial fanout (parallel instances of the subtree below l).
//
// The tile held at level l therefore has, per dimension, extent
// E(d,l) = prod_{l' <= l} Temporal[l'][d] * Spatial[l'][d], and the loops at
// level l+1 iterate over level-l tiles. The product over all levels must
// cover the (possibly padded) problem dimension.
package mapping

import (
	"fmt"
	"slices"
	"strconv"

	"sunstone/internal/arch"
	"sunstone/internal/tensor"
)

// LevelMapping holds the loops assigned at one storage level.
type LevelMapping struct {
	// Temporal maps each dimension to its temporal loop bound at this
	// level; missing dimensions default to 1.
	Temporal map[tensor.Dim]int
	// Order lists temporal dimensions innermost-first. Dimensions absent
	// from Order (or with bound 1) are appended outermost in canonical
	// order; bound-1 loops never affect reuse.
	Order []tensor.Dim
	// Spatial maps dimensions to unroll factors across this level's fanout.
	Spatial map[tensor.Dim]int
}

// T returns the temporal bound of d at this level (default 1).
func (lm *LevelMapping) T(d tensor.Dim) int {
	if n, ok := lm.Temporal[d]; ok && n > 0 {
		return n
	}
	return 1
}

// S returns the spatial unroll factor of d at this level (default 1).
func (lm *LevelMapping) S(d tensor.Dim) int {
	if n, ok := lm.Spatial[d]; ok && n > 0 {
		return n
	}
	return 1
}

// SpatialProduct returns the product of all spatial factors at this level.
func (lm *LevelMapping) SpatialProduct() int {
	p := 1
	for _, n := range lm.Spatial {
		if n > 1 {
			p *= n
		}
	}
	return p
}

// Mapping binds a workload to an architecture.
type Mapping struct {
	Workload *tensor.Workload
	Arch     *arch.Arch
	Levels   []LevelMapping // index-aligned with Arch.Levels
}

// New returns a mapping with every loop bound 1 (nothing assigned yet).
func New(w *tensor.Workload, a *arch.Arch) *Mapping {
	m := &Mapping{Workload: w, Arch: a, Levels: make([]LevelMapping, len(a.Levels))}
	for i := range m.Levels {
		m.Levels[i].Temporal = map[tensor.Dim]int{}
		m.Levels[i].Spatial = map[tensor.Dim]int{}
	}
	return m
}

// FromRows builds the mapping whose factor of dimension w.Order[i] at level l
// is t[l*nd+i] (temporal) and s[l*nd+i] (spatial), nd = len(w.Order), and
// whose loop order at level l lists the dimensions order[l] indexes. Factors
// above 1 become map entries — a missing entry reads as 1. This is how a
// search that runs on factor rows hands a mapping to the rest of the program.
func FromRows(w *tensor.Workload, a *arch.Arch, t, s []int, order [][]int32) *Mapping {
	nd := len(w.Order)
	m := &Mapping{Workload: w, Arch: a, Levels: make([]LevelMapping, len(a.Levels))}
	for l := range m.Levels {
		lm := &m.Levels[l]
		lm.Temporal = factorMap(w.Order, t[l*nd:(l+1)*nd])
		lm.Spatial = factorMap(w.Order, s[l*nd:(l+1)*nd])
		if len(order[l]) > 0 {
			lm.Order = make([]tensor.Dim, len(order[l]))
			for k, i := range order[l] {
				lm.Order[k] = w.Order[i]
			}
		}
	}
	return m
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

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{Workload: m.Workload, Arch: m.Arch, Levels: make([]LevelMapping, len(m.Levels))}
	for i := range m.Levels {
		src := &m.Levels[i]
		dst := &c.Levels[i]
		dst.Temporal = make(map[tensor.Dim]int, len(src.Temporal))
		for d, n := range src.Temporal {
			dst.Temporal[d] = n
		}
		dst.Spatial = make(map[tensor.Dim]int, len(src.Spatial))
		for d, n := range src.Spatial {
			dst.Spatial[d] = n
		}
		dst.Order = append([]tensor.Dim(nil), src.Order...)
	}
	return c
}

// Extent returns the tile extent of dimension d at level lvl:
// the product of temporal and spatial factors at levels 0..lvl.
func (m *Mapping) Extent(d tensor.Dim, lvl int) int {
	e := 1
	for l := 0; l <= lvl && l < len(m.Levels); l++ {
		e *= m.Levels[l].T(d) * m.Levels[l].S(d)
	}
	return e
}

// Extents returns the per-dimension tile extents at level lvl.
func (m *Mapping) Extents(lvl int) map[tensor.Dim]int {
	ext := make(map[tensor.Dim]int, len(m.Workload.Dims))
	for d := range m.Workload.Dims {
		ext[d] = m.Extent(d, lvl)
	}
	return ext
}

// Coverage returns the total factor product for dimension d across all
// levels (temporal and spatial). A legal mapping has Coverage(d) >= Dims[d].
func (m *Mapping) Coverage(d tensor.Dim) int {
	return m.Extent(d, len(m.Levels)-1)
}

// PaddedMACs returns the number of loop-body evaluations the mapping actually
// executes (including padding waste): the product of per-dimension coverage.
func (m *Mapping) PaddedMACs() int64 {
	p := int64(1)
	for d := range m.Workload.Dims {
		p *= int64(m.Coverage(d))
	}
	return p
}

// EffectiveOrder returns the complete innermost-first temporal loop order at
// level lvl: the explicit Order first, then any remaining dimensions in
// canonical workload order.
func (m *Mapping) EffectiveOrder(lvl int) []tensor.Dim {
	out := make([]tensor.Dim, 0, len(m.Workload.Dims))
	for _, d := range m.Levels[lvl].Order {
		if _, declared := m.Workload.Dims[d]; declared && !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	declared := len(out)
	for _, d := range m.Workload.Order {
		if !slices.Contains(out[:declared], d) {
			out = append(out, d)
		}
	}
	return out
}

// FootprintBits returns the storage, in bits, tensor t occupies at level lvl.
func (m *Mapping) FootprintBits(t *tensor.Tensor, lvl int) int64 {
	fp := int64(t.Footprint(m.Extents(lvl)))
	return fp * int64(m.Arch.Bits(t.Name))
}

// Validate checks full mapping legality:
//
//  1. coverage: per-dimension factor products cover the problem bounds;
//  2. capacity: at every level, for every buffer, the tiles of the tensors
//     it holds fit (the invalidity mode the paper reports for CoSA and
//     dMazeRunner);
//  3. fanout: the spatial factor product at each level fits its fanout;
//  4. spatial reduction: reduction dimensions are unrolled only across
//     levels that support combining partial sums;
//  5. factors: every factor is positive, and only workload dimensions carry
//     a factor above 1.
func (m *Mapping) Validate() error {
	// The reduction set is derived at most once, by the first level that
	// cannot combine partial sums.
	var reduction []tensor.Dim
	derived := false
	for _, d := range m.Workload.Order {
		if m.Coverage(d) < m.Workload.Dims[d] {
			return fmt.Errorf("dimension %s: coverage %d < bound %d", d, m.Coverage(d), m.Workload.Dims[d])
		}
	}
	for lvl := range m.Levels {
		al := &m.Arch.Levels[lvl]
		// Top level is unbounded; skip capacity there.
		if lvl < len(m.Levels)-1 {
			ext := m.Extents(lvl)
			for bi := range al.Buffers {
				buf := &al.Buffers[bi]
				if buf.Bytes == 0 {
					continue
				}
				var usedBits int64
				for _, t := range m.Workload.Tensors {
					if buf.Holds(t.Name) && m.heldHere(t.Name, lvl, bi) {
						usedBits += int64(t.Footprint(ext)) * int64(m.Arch.Bits(t.Name))
					}
				}
				if capBits := buf.Bytes * 8; usedBits > capBits {
					return fmt.Errorf("level %s buffer %s: tile needs %d bits, capacity %d bits",
						al.Name, buf.Name, usedBits, capBits)
				}
			}
		}
		lm := &m.Levels[lvl]
		if sp := lm.SpatialProduct(); sp > al.Fanout {
			return fmt.Errorf("level %s: spatial product %d exceeds fanout %d", al.Name, sp, al.Fanout)
		}
		if !al.AllowSpatialReduction {
			if !derived {
				reduction, derived = m.Workload.ReductionDims(), true
			}
			for _, d := range reduction {
				if lm.S(d) > 1 {
					return fmt.Errorf("level %s: reduction dimension %s unrolled spatially but level cannot combine partial sums", al.Name, d)
				}
			}
		}
		if err := m.checkFactors(al.Name, "temporal", lm.Temporal); err != nil {
			return err
		}
		if err := m.checkFactors(al.Name, "spatial", lm.Spatial); err != nil {
			return err
		}
	}
	return nil
}

// checkFactors rejects what the T/S accessors hide: a factor below 1, and a
// factor above 1 on a dimension the workload does not declare (a factor of 1
// there is legal and invisible).
func (m *Mapping) checkFactors(level, kind string, factors map[tensor.Dim]int) error {
	for d, n := range factors {
		if n < 1 {
			return fmt.Errorf("level %s: non-positive %s factor %d for %s", level, kind, n, d)
		}
		if n == 1 {
			continue
		}
		if _, declared := m.Workload.Dims[d]; !declared {
			return fmt.Errorf("level %s: %s factor %d for %s: workload %q has no such dimension",
				level, kind, n, d, m.Workload.Name)
		}
	}
	return nil
}

// heldHere reports whether tensor name is actually resident in buffer bi of
// level lvl: the buffer must hold it and the level must be on the tensor's
// keep chain (a level whose buffers exclude the tensor is a bypass level).
func (m *Mapping) heldHere(name string, lvl, bi int) bool {
	return m.Arch.Levels[lvl].Buffers[bi].Holds(name) && m.Arch.Levels[lvl].Keeps(name)
}

// Utilization returns, for buffer bi at level lvl, the fraction of capacity
// the mapped tiles occupy (0 for unbounded buffers). Used by the
// dMazeRunner-style utilization-threshold heuristics.
func (m *Mapping) Utilization(lvl, bi int) float64 {
	buf := &m.Arch.Levels[lvl].Buffers[bi]
	if buf.Bytes == 0 {
		return 0
	}
	ext := m.Extents(lvl)
	var usedBits int64
	for _, t := range m.Workload.Tensors {
		if buf.Holds(t.Name) {
			usedBits += int64(t.Footprint(ext)) * int64(m.Arch.Bits(t.Name))
		}
	}
	return float64(usedBits) / float64(buf.Bytes*8)
}

// PEUtilization returns the fraction of the total spatial MAC fanout the
// mapping actually uses.
func (m *Mapping) PEUtilization() float64 {
	used, avail := 1, 1
	for lvl := range m.Levels {
		used *= m.Levels[lvl].SpatialProduct()
		avail *= m.Arch.Levels[lvl].Fanout
	}
	return float64(used) / float64(avail)
}

// String renders the mapping level by level, outermost first, in the paper's
// loop-order notation (e.g. "DRAM: K4 P2 | L1: C4 R3 ..."). The search's
// tie-break writes the same bytes from factor rows (core's renderRow), so the
// two must change together.
func (m *Mapping) String() string {
	var b []byte
	loop := func(d tensor.Dim, n int) {
		b = append(b, ' ')
		b = append(b, d...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	var ds []tensor.Dim
	for lvl := len(m.Levels) - 1; lvl >= 0; lvl-- {
		lm := &m.Levels[lvl]
		b = append(b, m.Arch.Levels[lvl].Name...)
		b = append(b, ':')
		order := m.EffectiveOrder(lvl)
		for i := len(order) - 1; i >= 0; i-- { // print outermost first
			if n := lm.T(order[i]); n > 1 {
				loop(order[i], n)
			}
		}
		if sp := lm.SpatialProduct(); sp > 1 {
			b = append(b, " [spatial:"...)
			ds = ds[:0]
			for d := range lm.Spatial {
				if lm.S(d) > 1 {
					ds = append(ds, d)
				}
			}
			slices.Sort(ds)
			for _, d := range ds {
				loop(d, lm.S(d))
			}
			b = append(b, ']')
		}
		if lvl > 0 {
			b = append(b, '\n')
		}
	}
	return string(b)
}
