package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"sunstone/internal/analytic"
	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/workloads"
)

// TestCompiledSeedIsAnalyticSeed: the row Compile stores is analytic.Seed's
// mapping — same render, and the same EDP bits through the row front as the
// Mapping scores through the map front — on TestFlowGolden's 12 workloads × 4
// machines.
func TestCompiledSeedIsAnalyticSeed(t *testing.T) {
	for _, w := range flowPresets() {
		for _, a := range flowArchs() {
			comp, err := Compile(w, a, cost.Model{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := analytic.Seed(w, a, comp.orderings)
			if err != nil {
				if comp.seedErr == nil || comp.seedErr.Error() != err.Error() {
					t.Errorf("%s on %s: Seed fails with %v, Compile stored %v", w.Name, a.Name, err, comp.seedErr)
				}
				continue
			}
			if comp.seedErr != nil {
				t.Fatalf("%s on %s: Compile stored seed error %v", w.Name, a.Name, comp.seedErr)
			}
			sc := newSearch(comp, Options{Threads: 1}.withDefaults())
			if got := sc.materialize(comp.seed); got.String() != want.String() {
				t.Errorf("%s on %s: compiled seed\n%s\nanalytic.Seed\n%s", w.Name, a.Name, got, want)
			}
			// Nothing has been scored on this session yet, so the row is
			// computed, not served from the memo.
			edp, _, _, valid, err := sc.containedRows(comp.seed)
			wantEDP, _, _, wantValid := sc.evs[0].EvaluateEDPUncached(want)
			if err != nil || valid != wantValid || math.Float64bits(edp) != math.Float64bits(wantEDP) {
				t.Errorf("%s on %s: compiled seed scores %v (valid %v, err %v), analytic.Seed %v (valid %v)", w.Name, a.Name, edp, valid, err, wantEDP, wantValid)
			}
		}
	}
}

// TestCompiledSeedErrorStillSolves: a problem the closed form cannot seed
// compiles, and every search of it runs unseeded with the build error
// recorded once.
func TestCompiledSeedErrorStillSolves(t *testing.T) {
	comp, err := Compile(conv1D(t, 8, 8, 56, 3), arch.Tiny(256), cost.Model{})
	if err != nil {
		t.Fatal(err)
	}
	noSeed := errors.New("analytic seed: no closed form for this problem")
	comp.seed, comp.seedErr = nil, noSeed
	for run := 0; run < 2; run++ {
		res, err := optimizeCompiled(context.Background(), comp, Options{}.withDefaults())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Mapping == nil || !res.Report.Valid || res.SeedEDP != 0 {
			t.Fatalf("run %d: mapping %v, valid %v, SeedEDP %v", run, res.Mapping, res.Report.Valid, res.SeedEDP)
		}
		recorded := 0
		for _, e := range res.CandidateErrors {
			if errors.Is(e, noSeed) {
				recorded++
			}
		}
		if recorded != 1 {
			t.Errorf("run %d: seed error recorded %d times in %v", run, recorded, res.CandidateErrors)
		}
	}
}

// TestSeedWinnerIsFreshMapping: when the compiled seed row is the search's
// answer, concurrent warm solves each return a Mapping of their own, and
// writing to one reaches neither the others nor the shared row. Run under
// -race by make race.
func TestSeedWinnerIsFreshMapping(t *testing.T) {
	p := Problem{Workload: workloads.Conv2DWeightUpdate("wu-batch", 16, 32, 32, 7, 7, 3, 3), Arch: arch.Conventional()}
	eng := NewEngine(0)
	cold, err := eng.Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.SeedEDP != cold.Report.EDP {
		t.Fatalf("precondition: the seed (EDP %v) is not this problem's answer (EDP %v)", cold.SeedEDP, cold.Report.EDP)
	}
	comp, err := eng.compiled(p)
	if err != nil {
		t.Fatal(err)
	}
	seed := slices.Clone(comp.seed)

	var warm [2]Result
	var wg sync.WaitGroup
	for i := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if warm[i], err = eng.Solve(context.Background(), p, Options{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if warm[0].Mapping == warm[1].Mapping || warm[0].Mapping == cold.Mapping {
		t.Fatal("two solves returned the same *Mapping")
	}
	want := cold.Mapping.String()
	lm := &warm[0].Mapping.Levels[0]
	for _, d := range p.Workload.Order {
		lm.Temporal[d], lm.Spatial[d] = 977, 3
	}
	slices.Reverse(lm.Order)
	third, err := eng.Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]string{"concurrent": warm[1].Mapping.String(), "later": third.Mapping.String()} {
		if m != want {
			t.Errorf("the %s solve's mapping changed with another solve's result:\n%s\nwant\n%s", name, m, want)
		}
	}
	if !slices.Equal(comp.seed, seed) {
		t.Error("the compiled seed row was written")
	}
}
