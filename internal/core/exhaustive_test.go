package core

import (
	"math"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// exhaustiveBest brute-forces a two-level (Tiny) mapping space: every
// combination of per-dimension L1 tile divisors and every DRAM loop
// permutation. This is feasible only for tiny problems, and serves as the
// ground-truth optimum for validating that Sunstone's pruning principles do
// not reject optimal solutions (Section I: "without losing the ability to
// discover optimal solutions").
func exhaustiveBest(t *testing.T, w *tensor.Workload, a *arch.Arch) (float64, int) {
	t.Helper()
	if len(a.Levels) != 2 {
		t.Fatal("exhaustive search supports only 2-level architectures")
	}
	dims := w.Order
	ladders := make([][]int, len(dims))
	for i, d := range dims {
		ladders[i] = factor.Divisors(w.Dims[d])
	}
	perms := permutations(dims)

	best := math.Inf(1)
	count := 0
	tile := make(map[tensor.Dim]int, len(dims))
	var rec func(i int)
	rec = func(i int) {
		if i == len(dims) {
			m := mapping.New(w, a)
			for d, f := range tile {
				m.Levels[0].Temporal[d] = f
				m.Levels[1].Temporal[d] = w.Dims[d] / f
			}
			for _, perm := range perms {
				m.Levels[1].Order = perm
				rep := cost.Evaluate(m)
				count++
				if rep.Valid && rep.EDP < best {
					best = rep.EDP
				}
			}
			return
		}
		for _, f := range ladders[i] {
			tile[dims[i]] = f
			rec(i + 1)
		}
	}
	rec(0)
	return best, count
}

func permutations(dims []tensor.Dim) [][]tensor.Dim {
	if len(dims) <= 1 {
		return [][]tensor.Dim{append([]tensor.Dim(nil), dims...)}
	}
	var out [][]tensor.Dim
	for i := range dims {
		rest := make([]tensor.Dim, 0, len(dims)-1)
		rest = append(rest, dims[:i]...)
		rest = append(rest, dims[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]tensor.Dim{dims[i]}, p...))
		}
	}
	return out
}

// TestSunstoneMatchesExhaustiveOptimum runs Sunstone against the
// ground-truth optimum on several small problems. The pruned search must
// come within 5% of the exhaustive best while examining far fewer points.
func TestSunstoneMatchesExhaustiveOptimum(t *testing.T) {
	cases := []struct {
		name    string
		w       *tensor.Workload
		l1Words int
	}{
		{"conv1d-small", conv1D(t, 4, 4, 8, 3), 48},
		{"conv1d-wide", conv1D(t, 8, 2, 12, 3), 64},
		{"conv1d-deep", conv1D(t, 2, 8, 6, 3), 40},
		{"matmul", tensor.MustNew("mm",
			map[tensor.Dim]int{"M": 8, "N": 8, "K": 8},
			&tensor.Tensor{Name: "A", Axes: []tensor.Axis{tensor.A("M"), tensor.A("K")}},
			&tensor.Tensor{Name: "B", Axes: []tensor.Axis{tensor.A("K"), tensor.A("N")}},
			&tensor.Tensor{Name: "out", Axes: []tensor.Axis{tensor.A("M"), tensor.A("N")}, Output: true},
		), 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := arch.Tiny(c.l1Words)
			optimum, exhaustiveCount := exhaustiveBest(t, c.w, a)
			if math.IsInf(optimum, 1) {
				t.Skip("no valid mapping exists at this capacity")
			}
			res, err := solve(c.w, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Report.Valid {
				t.Fatalf("Sunstone returned invalid mapping: %v", res.Report.Invalid)
			}
			gap := res.Report.EDP / optimum
			if gap > 1.05 {
				t.Errorf("Sunstone EDP %.4e is %.2fx the exhaustive optimum %.4e",
					res.Report.EDP, gap, optimum)
			}
			if res.SpaceSize >= exhaustiveCount {
				t.Errorf("pruned search examined %d >= exhaustive %d", res.SpaceSize, exhaustiveCount)
			}
			t.Logf("optimum %.4e, sunstone %.4e (%.3fx), space %d vs %d exhaustive",
				optimum, res.Report.EDP, gap, res.SpaceSize, exhaustiveCount)
		})
	}
}
