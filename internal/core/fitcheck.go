package core

import (
	"sunstone/internal/arch"
	"sunstone/internal/tensor"
)

// fitSkeleton is the static half of the capacity tables: per checked level,
// which bounded buffers exist, which tensors each holds, and each tensor's
// axis structure (stride and dimension index per term). All of it depends
// only on (workload, arch), so Compile builds it once; a capacity question is
// then a vector of per-dimension tile extents run through levelFits.
type fitSkeleton struct {
	lvls []fitSkelLevel // one per level 0..top-1
}

type fitSkelLevel struct {
	bufs []fitSkelBuffer
}

type fitSkelBuffer struct {
	capBits int64
	tens    []fitSkelTensor
}

type fitSkelTensor struct {
	bits  int64
	terms []fitSkelTerm // every axis's terms, axis after axis
}

type fitSkelTerm struct {
	stride  int
	dim     int  // index into dimTable.names
	axisEnd bool // last term of its axis
}

// buildFitSkeleton flattens the bounded-buffer capacity constraints of every
// non-top level.
func buildFitSkeleton(w *tensor.Workload, a *arch.Arch, dt *dimTable) fitSkeleton {
	var sk fitSkeleton
	top := len(a.Levels) - 1
	for L := 0; L < top; L++ {
		var fl fitSkelLevel
		al := &a.Levels[L]
		for bi := range al.Buffers {
			buf := &al.Buffers[bi]
			if buf.Bytes == 0 {
				continue
			}
			fb := fitSkelBuffer{capBits: buf.Bytes * 8}
			for _, t := range w.Tensors {
				if !buf.Holds(t.Name) {
					continue
				}
				ft := fitSkelTensor{bits: int64(a.Bits(t.Name))}
				for _, ax := range t.Axes {
					for k, term := range ax {
						ft.terms = append(ft.terms, fitSkelTerm{stride: term.Stride, dim: dt.index[term.D], axisEnd: k == len(ax)-1})
					}
				}
				fb.tens = append(fb.tens, ft)
			}
			fl.bufs = append(fl.bufs, fb)
		}
		sk.lvls = append(sk.lvls, fl)
	}
	return sk
}

// levelFits reports whether tiles with per-dimension extents ext fit every
// bounded buffer of level L: per buffer, the footprints of the tensors it
// holds (Π over axes of 1 + Σ stride·(extent − 1)), in bits, against its
// capacity. This is the search's one capacity rule; every probe shape below
// reduces to it.
func (sk *fitSkeleton) levelFits(L int, ext []int) bool {
	fl := &sk.lvls[L]
	for bi := range fl.bufs {
		fb := &fl.bufs[bi]
		var usedBits int64
		for ti := range fb.tens {
			ft := &fb.tens[ti]
			fp, e := 1, 1
			for _, term := range ft.terms {
				n := ext[term.dim]
				if n <= 0 {
					n = 1
				}
				e += term.stride * (n - 1)
				if term.axisEnd {
					fp *= e
					e = 1
				}
			}
			usedBits += int64(fp) * ft.bits
		}
		if usedBits > fb.capBits {
			return false
		}
	}
	return true
}

// fitChecker is the search's capacity oracle over a partial mapping in
// integer form. Every enumeration stage varies one row of the factor matrix —
// the tiling tree and the residual fill level l's temporal factors, the
// unrolling post-filter level l's spatial factors — while everything else
// stays fixed, so reset folds the fixed part into per-level base extents once
// and each probe is then a multiply per dimension and level plus levelFits:
// no maps, no allocation. The answer is exactly what writing the row into a
// mapping.Mapping and summing map-derived footprints gives (the test-side
// feasible; see TestFitCheckerMatchesFeasible). Top-down's remainder probes
// have their extents already and call levelFits directly.
type fitChecker struct {
	skel *fitSkeleton
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
		if !fc.skel.levelFits(fc.from+k, ext) {
			return false
		}
	}
	return true
}
