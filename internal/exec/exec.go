// Package exec functionally executes tensor-algebra workloads — both
// directly (the reference nested loop) and through a dataflow mapping's full
// tiled/reordered/unrolled loop nest — so that mappings can be verified to
// compute exactly the same result as the untransformed program.
//
// Dataflow mapping is only legal because the target loop nests have no
// inter-iteration dependencies: any tiling, interchange, or unrolling of
// such a nest is semantics-preserving, *provided* the mapping covers every
// iteration exactly once (with padding iterations masked out). This package
// is the executable proof of that property for this repository's mapping
// representation: internal/core's searches and all baseline mappers emit
// mappings whose executions are bit-identical (in integer arithmetic) to the
// reference.
package exec

import (
	"fmt"

	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// Value is the element type: int64 keeps verification exact (no float
// rounding concerns under reordered accumulation).
type Value = int64

// Tensors maps tensor names to dense storage indexed by Index.
type Tensors map[string][]Value

// Index computes the flat offset of tensor t for the given per-dimension
// loop indices, using the workload's full extents as the storage shape:
// axes are mixed-radix digits, and each axis's coordinate is the sum of its
// strided terms (e.g. 2p+r for a stride-2 convolution input).
func Index(w *tensor.Workload, t *tensor.Tensor, idx map[tensor.Dim]int) int {
	return shapeOf(t, w.FullExtents()).index(idx)
}

// operand is a tensor with its storage shape: the extent of each axis at the
// workload's full problem size — the mixed-radix base of Index. An execution
// derives its operands once (see operands), so addressing an element in the
// loop body builds nothing.
type operand struct {
	t   *tensor.Tensor
	ext []int
}

func shapeOf(t *tensor.Tensor, full map[tensor.Dim]int) operand {
	o := operand{t: t, ext: make([]int, len(t.Axes))}
	for i, a := range t.Axes {
		o.ext[i] = a.Extent(full)
	}
	return o
}

func (o operand) index(idx map[tensor.Dim]int) int {
	flat := 0
	for i, a := range o.t.Axes {
		coord := 0
		for _, term := range a {
			coord += term.Stride * idx[term.D]
		}
		flat = flat*o.ext[i] + coord
	}
	return flat
}

// operands shapes the workload's inputs and outputs.
func operands(w *tensor.Workload) (in, out []operand) {
	full := w.FullExtents()
	for _, t := range w.Tensors {
		if t.Output {
			out = append(out, shapeOf(t, full))
		} else {
			in = append(in, shapeOf(t, full))
		}
	}
	return in, out
}

// Alloc allocates zeroed storage for every tensor of w at full extents.
func Alloc(w *tensor.Workload) Tensors {
	full := w.FullExtents()
	ts := make(Tensors, len(w.Tensors))
	for _, t := range w.Tensors {
		ts[t.Name] = make([]Value, t.Footprint(full))
	}
	return ts
}

// FillDeterministic writes a reproducible non-trivial pattern into every
// input tensor (outputs are zeroed).
func FillDeterministic(w *tensor.Workload, ts Tensors) {
	for _, t := range w.Inputs() {
		buf := ts[t.Name]
		for i := range buf {
			buf[i] = Value((i*2654435761 + 12345) % 97) // simple LCG-ish hash
		}
	}
	for _, t := range w.Outputs() {
		buf := ts[t.Name]
		for i := range buf {
			buf[i] = 0
		}
	}
}

// Reference executes the workload directly: one pass over the full
// iteration space in canonical dimension order, accumulating the product of
// the inputs into each output.
func Reference(w *tensor.Workload, ts Tensors) {
	dims := w.Order
	in, out := operands(w)
	idx := make(map[tensor.Dim]int, len(dims))
	var rec func(i int)
	rec = func(i int) {
		if i == len(dims) {
			body(in, out, ts, idx)
			return
		}
		d := dims[i]
		for v := 0; v < w.Dims[d]; v++ {
			idx[d] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// body performs one loop-body evaluation at idx.
func body(in, out []operand, ts Tensors, idx map[tensor.Dim]int) {
	prod := Value(1)
	for _, o := range in {
		prod *= ts[o.t.Name][o.index(idx)]
	}
	for _, o := range out {
		ts[o.t.Name][o.index(idx)] += prod
	}
}

// Mapped executes the workload through mapping m's complete loop nest:
// levels outermost first; within each level the temporal loops in the
// level's effective order (outermost first), then the level's spatial loops
// (executed sequentially — parallel semantics are identical because
// iterations are independent); padding iterations (global index beyond the
// problem bound) are masked. Returns an error if m is invalid.
func Mapped(m *mapping.Mapping, ts Tensors) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("cannot execute invalid mapping: %w", err)
	}
	w := m.Workload
	nest := m.Nest()
	in, out := operands(w)

	idx := make(map[tensor.Dim]int, len(w.Dims))
	for d := range w.Dims {
		idx[d] = 0
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(nest) {
			// Mask padding: any coordinate beyond its true bound.
			for d, v := range idx {
				if v >= w.Dims[d] {
					return
				}
			}
			body(in, out, ts, idx)
			return
		}
		lp := nest[i]
		for v := 0; v < lp.Bound; v++ {
			idx[lp.D] += v * lp.Stride
			rec(i + 1)
			idx[lp.D] -= v * lp.Stride
		}
	}
	rec(0)
	return nil
}

// Equal reports whether two tensor sets hold identical output values.
func Equal(w *tensor.Workload, a, b Tensors) bool {
	for _, t := range w.Outputs() {
		x, y := a[t.Name], b[t.Name]
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// Verify runs both executions on identical deterministic inputs and reports
// whether the mapping computes the reference result.
func Verify(m *mapping.Mapping) (bool, error) {
	w := m.Workload
	ref := Alloc(w)
	FillDeterministic(w, ref)
	got := Alloc(w)
	FillDeterministic(w, got)
	Reference(w, ref)
	if err := Mapped(m, got); err != nil {
		return false, err
	}
	return Equal(w, ref, got), nil
}
