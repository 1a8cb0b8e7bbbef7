package exec

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

func TestReferenceMatMulByHand(t *testing.T) {
	// 2x2 matmul with hand-checked values.
	w := tensor.MustNew("mm",
		map[tensor.Dim]int{"M": 2, "N": 2, "K": 2},
		&tensor.Tensor{Name: "A", Axes: []tensor.Axis{tensor.A("M"), tensor.A("K")}},
		&tensor.Tensor{Name: "B", Axes: []tensor.Axis{tensor.A("K"), tensor.A("N")}},
		&tensor.Tensor{Name: "out", Axes: []tensor.Axis{tensor.A("M"), tensor.A("N")}, Output: true},
	)
	ts := Alloc(w)
	copy(ts["A"], []Value{1, 2, 3, 4}) // row-major [M][K]
	copy(ts["B"], []Value{5, 6, 7, 8}) // row-major [K][N]
	Reference(w, ts)
	want := []Value{19, 22, 43, 50}
	for i, v := range want {
		if ts["out"][i] != v {
			t.Errorf("out[%d] = %d, want %d", i, ts["out"][i], v)
		}
	}
}

func TestReferenceConvWindow(t *testing.T) {
	// 1D conv, K=1, C=1, P=3, R=2: out[p] = sum_r in[p+r]*w[r].
	w := workloads.Conv1D("c", 1, 1, 3, 2)
	ts := Alloc(w)
	copy(ts[arch.Ifmap], []Value{1, 2, 3, 4})
	copy(ts[arch.Weight], []Value{10, 1})
	Reference(w, ts)
	want := []Value{1*10 + 2*1, 2*10 + 3*1, 3*10 + 4*1}
	for i, v := range want {
		if ts[arch.Ofmap][i] != v {
			t.Errorf("ofmap[%d] = %d, want %d", i, ts[arch.Ofmap][i], v)
		}
	}
}

func TestMappedMatchesReferenceHandMapping(t *testing.T) {
	w := workloads.Conv1D("c", 4, 4, 14, 3)
	a := arch.Tiny(4096)
	m := mapping.New(w, a)
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": 7, "K": 2, "C": 2, "R": 3}
	m.Levels[1].Temporal = map[tensor.Dim]int{"P": 2, "K": 2, "C": 2}
	m.Levels[1].Order = []tensor.Dim{"C", "K", "P"}
	ok, err := Verify(m)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("tiled execution differs from reference")
	}
}

func TestMappedMatchesReferenceWithPadding(t *testing.T) {
	// Factors overshoot the bound (coverage 8 for P=7): the padding guard
	// must mask the extra iterations.
	w := workloads.Conv1D("c", 3, 2, 7, 3)
	a := arch.Tiny(4096)
	m := mapping.New(w, a)
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": 4, "K": 3, "C": 2, "R": 3}
	m.Levels[1].Temporal = map[tensor.Dim]int{"P": 2}
	if m.Coverage("P") != 8 {
		t.Fatal("test needs a padded mapping")
	}
	ok, err := Verify(m)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("padded execution differs from reference")
	}
}

func TestMappedRejectsInvalidMapping(t *testing.T) {
	w := workloads.Conv1D("c", 4, 4, 14, 3)
	m := mapping.New(w, arch.Tiny(4096)) // nothing assigned: coverage 1 < bounds
	if err := Mapped(m, Alloc(w)); err == nil {
		t.Fatal("invalid mapping must be rejected")
	}
}

// TestMappedMatchesReferenceProperty: random valid mappings (random factor
// scatter, random orders, random spatial) always compute the reference
// result — the executable form of "tiling, interchange, and unrolling are
// semantics-preserving".
func TestMappedMatchesReferenceProperty(t *testing.T) {
	w := tensor.MustNew("conv1d",
		map[tensor.Dim]int{"K": 4, "C": 4, "P": 12, "R": 3},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{tensor.Win("P", 1, "R", 1), tensor.A("C")}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{tensor.A("K"), tensor.A("C"), tensor.A("R")}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{tensor.A("K"), tensor.A("P")}, Output: true},
	)
	a := arch.TinySpatial(1<<16, 1<<20, 8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mapping.New(w, a)
		for _, d := range w.Order {
			for _, p := range factor.Primes(w.Dims[d]) {
				switch rng.Intn(4) {
				case 0:
					m.Levels[0].Temporal[d] = m.Levels[0].T(d) * p
				case 1:
					m.Levels[1].Temporal[d] = m.Levels[1].T(d) * p
				case 2:
					m.Levels[2].Temporal[d] = m.Levels[2].T(d) * p
				default:
					if m.Levels[1].SpatialProduct()*p <= 8 {
						m.Levels[1].Spatial[d] = m.Levels[1].S(d) * p
					} else {
						m.Levels[2].Temporal[d] = m.Levels[2].T(d) * p
					}
				}
			}
		}
		for l := 1; l < 3; l++ {
			order := append([]tensor.Dim(nil), w.Order...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			m.Levels[l].Order = order
		}
		if m.Validate() != nil {
			return true // vacuous for rare invalid scatters
		}
		ok, err := Verify(m)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestOptimizerOutputsComputeCorrectly closes the loop: mappings produced by
// the actual Sunstone search are functionally correct, including on the
// multi-level Simba hierarchy and non-conv kernels.
func TestOptimizerOutputsComputeCorrectly(t *testing.T) {
	cases := []struct {
		name string
		w    *tensor.Workload
		a    *arch.Arch
	}{
		{"conv-tiny", workloads.Conv1D("c", 8, 8, 28, 3), arch.Tiny(256)},
		{"conv2d-spatial", workloads.Conv2D("c2", 1, 8, 8, 6, 6, 3, 3, 1, 1), arch.TinySpatial(512, 1<<16, 4)},
		{"mttkrp", workloads.MTTKRP("m", 12, 10, 8, 4), arch.Tiny(512)},
		{"strided-conv", workloads.Conv2D("cs", 1, 4, 3, 5, 5, 3, 3, 2, 2), arch.Tiny(1024)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := core.Solve(context.Background(), core.Problem{Workload: c.w, Arch: c.a}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ok, err := Verify(res.Mapping)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("optimizer mapping computes a different result:\n%s", res.Mapping)
			}
		})
	}
}

func TestIndexStridedWindow(t *testing.T) {
	w := workloads.Conv2D("c", 1, 1, 1, 3, 3, 3, 3, 2, 2)
	ifm := w.Tensor(arch.Ifmap)
	// P axis coordinate = 2p + r.
	idx := map[tensor.Dim]int{"N": 0, "C": 0, "P": 2, "Q": 0, "R": 1, "S": 0}
	full := w.FullExtents()
	// Row extent along Q axis: 2*(3-1)+3 = 7.
	wantRow := 2*2 + 1
	if got := Index(w, ifm, idx); got != wantRow*ifm.Axes[3].Extent(full) {
		t.Errorf("Index = %d, want %d", got, wantRow*ifm.Axes[3].Extent(full))
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	w := workloads.Conv1D("c", 2, 2, 4, 2)
	a1, a2 := Alloc(w), Alloc(w)
	if !Equal(w, a1, a2) {
		t.Error("identical zeroed tensors should be equal")
	}
	a2[arch.Ofmap][0] = 1
	if Equal(w, a1, a2) {
		t.Error("difference not detected")
	}
}
