package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// rowFixture is a search over a workload whose dimension names are prefixes
// of one another ("P", "PQ", "K", "K1") on the dual-spatial machine of
// TestFlowGolden (a fanout at level 0 and at level 1), so a render that
// concatenates names and factors carelessly, or sorts spatial entries by
// index instead of by name, shows.
func rowFixture(t *testing.T) *search {
	t.Helper()
	w := tensor.MustNew("prefixes",
		map[tensor.Dim]int{"K": 1200, "K1": 96, "P": 1024, "PQ": 360, "R": 3},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{tensor.Win("P", 1, "R", 1), tensor.A("PQ"), tensor.A("K1")}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{tensor.A("K"), tensor.A("K1"), tensor.A("R")}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{tensor.A("K"), tensor.A("P"), tensor.A("PQ")}, Output: true},
	)
	dual := arch.TinySpatial(64, 4096, 8)
	dual.Name = "dual-spatial"
	dual.Levels[0].Fanout = 4
	comp, err := Compile(w, dual, cost.Model{})
	if err != nil {
		t.Fatal(err)
	}
	return newSearch(comp, Options{Threads: 1}.withDefaults())
}

// randomRow draws a partial or complete mapping in row form: multi-digit
// factors, spatial factors at any level, and per level either no loop order
// or one of the compiled ones.
func randomRow(sc *search, rng *rand.Rand) []int {
	factors := []int{1, 1, 1, 1, 2, 3, 12, 128, 1000}
	p := sc.comp.shape.view(sc.comp.shape.empty())
	for i := range p.t {
		p.t[i] = factors[rng.Intn(len(factors))]
		if rng.Intn(3) == 0 {
			p.s[i] = factors[rng.Intn(len(factors))]
		}
	}
	for l := range p.ord {
		if rng.Intn(3) > 0 {
			p.ord[l] = rng.Intn(len(sc.comp.dims.orderings))
		}
	}
	return p.row
}

// TestRenderRowMatchesString pins the tie-break render: written from a row it
// is byte for byte Mapping.String() of the mapping the row denotes — for rows
// the enumeration can produce, and for mappings that arrive from outside it
// with orders the trie never emits (short, with repeats, naming dimensions
// the workload does not have).
func TestRenderRowMatchesString(t *testing.T) {
	sc := rowFixture(t)
	rng := rand.New(rand.NewSource(5))
	seen := make([]bool, sc.comp.shape.nd)
	for i := 0; i < 400; i++ {
		row := randomRow(sc, rng)
		if got, want := string(sc.renderRow(nil, row, seen)), sc.materialize(row).String(); got != want {
			t.Fatalf("row %v renders\n%q\nits mapping\n%q", row, got, want)
		}
	}
	names := append([]tensor.Dim{"Z", "KK"}, sc.comp.dims.names...)
	for i := 0; i < 400; i++ {
		m := sc.materialize(randomRow(sc, rng))
		for l := range m.Levels {
			m.Levels[l].Order = nil
			for n := rng.Intn(len(names) + 3); n > 0; n-- {
				m.Levels[l].Order = append(m.Levels[l].Order, names[rng.Intn(len(names))])
			}
		}
		row := sc.comp.rowOf(sc.orders, m)
		if got, want := string(sc.renderRow(nil, row, seen)), m.String(); got != want {
			t.Fatalf("mapping renders\n%q\nits row\n%q", want, got)
		}
		if back := sc.materialize(row).String(); back != m.String() {
			t.Fatalf("mapping\n%q\ncame back from its row as\n%q", m.String(), back)
		}
	}
	for _, s := range seen {
		if s {
			t.Fatal("renderRow left its scratch flags set")
		}
	}
}

// TestExpandKeyAtLeastAsFine: the binary expansion-memo key separates every
// pair of (level, budget, base) the key it replaced — the option knobs and
// the base's canonical render, formatted — separated.
func TestExpandKeyAtLeastAsFine(t *testing.T) {
	sc := rowFixture(t)
	rng := rand.New(rand.NewSource(9))
	rendered := func(lvl, budget int, base []int) string {
		o := sc.opt
		return fmt.Sprintf("%t|%d|%d|%d|%d|%d|%g|%s",
			sc.study.TopDown, sc.study.Strategy, lvl, budget, o.TilesPerStep, o.UnrollsPerStep, o.MinUtilization, sc.materialize(base).String())
	}
	old := map[string]string{} // binary key -> the rendered key of the first base that produced it
	distinct := map[string]bool{}
	for i := 0; i < 3000; i++ {
		base := randomRow(sc, rng)
		// Few factors above 1, so that bases collide on the rendered key.
		for j := range base[:2*sc.comp.shape.nl*sc.comp.shape.nd] {
			if rng.Intn(4) > 0 {
				base[j] = 1
			}
		}
		lvl, budget := rng.Intn(3), rng.Intn(2)*1000
		k, r := string(sc.expandKey(nil, lvl, budget, base)), rendered(lvl, budget, base)
		if prev, ok := old[k]; ok && prev != r {
			t.Fatalf("one binary key for two rendered keys:\n%q\n%q", prev, r)
		}
		old[k] = r
		distinct[r] = true
	}
	if len(old) < len(distinct) {
		t.Fatalf("%d binary keys for %d rendered keys", len(old), len(distinct))
	}
	if len(old) == len(distinct) {
		t.Errorf("the sample never separated two bases the render merged (%d keys); the generator is too sparse to test fineness", len(old))
	}
}

// TestExpandCacheBoundsEmptyEntries: an entry without candidates — an
// infeasible base; in a top-down search every distinct per-state budget share
// is its own key — is charged for its key and its bookkeeping, so a daemon
// that keeps producing them cannot grow the map without limit.
func TestExpandCacheBoundsEmptyEntries(t *testing.T) {
	c := expandCache{m: make(map[string]*expandEntry)}
	const puts = 100_000
	for i := 0; i < puts; i++ {
		c.put(fmt.Sprintf("a rendered key of about the length the search builds, number %d", i), &expandEntry{})
	}
	if len(c.m) >= puts {
		t.Fatalf("%d empty entries stored out of %d puts: the bound does not bind", len(c.m), puts)
	}
}

// TestWarmSolveFindsEveryExpansion: nothing the candidate-count bound used to
// admit is turned away by the byte bound — on the largest TestFlowGolden
// presets, in both directions, the first solve on an Engine stores every
// expansion and the second finds an entry for every key it asks for.
func TestWarmSolveFindsEveryExpansion(t *testing.T) {
	presets := []*tensor.Workload{
		workloads.Conv2D("conv-wide", 1, 64, 64, 28, 28, 3, 3, 1, 1),
		workloads.Conv2DWeightUpdate("wu-batch", 16, 32, 32, 7, 7, 3, 3),
		workloads.FC("gemm-large", 64, 512, 384),
		workloads.MMc("mmc", 64, 48, 32, 64),
	}
	for _, w := range presets {
		for _, a := range []*arch.Arch{arch.Conventional(), arch.Simba()} {
			eng := NewEngine(0)
			p := Problem{Workload: w, Arch: a}
			comp, err := eng.compiled(p)
			if err != nil {
				t.Fatal(err)
			}
			c := &comp.expansions
			for _, dir := range directions {
				opt := Options{Study: &Study{TopDown: dir.topDown, VisitBudget: 24_000}}
				if _, err := eng.Solve(context.Background(), p, opt); err != nil {
					t.Fatal(err)
				}
				stored, cands := len(c.m), 0
				for _, e := range c.m {
					cands += len(e.keys)
				}
				if _, err := eng.Solve(context.Background(), p, opt); err != nil {
					t.Fatal(err)
				}
				if c.refused != 0 || len(c.m) != stored {
					t.Errorf("%s on %s, %s: %d puts refused, %d entries after the first solve, %d after the second (%d candidates, %d bytes charged)",
						w.Name, a.Name, dir.name, c.refused, stored, len(c.m), cands, c.bytes)
				}
			}
		}
	}
}

// TestRowOfRoundTrip: a mapping that enters the search from outside (the
// analytic seed, a warm start) and leaves it again is the same mapping: same
// factors, same declared orders, partial and with repeats as given.
func TestRowOfRoundTrip(t *testing.T) {
	sc := rowFixture(t)
	m := mapping.New(sc.comp.w, sc.comp.a)
	m.Levels[0].Temporal["K"] = 12
	m.Levels[1].Spatial["PQ"] = 8
	m.Levels[1].Order = []tensor.Dim{"P", "K1", "P"}
	m.Levels[2].Temporal["K"] = 100
	back := sc.materialize(sc.comp.rowOf(sc.orders, m))
	if fmt.Sprint(back.Levels) != fmt.Sprint(m.Levels) {
		t.Fatalf("round trip changed the mapping:\n%v\n%v", m.Levels, back.Levels)
	}
}
