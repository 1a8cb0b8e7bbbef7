package tile

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"sunstone/internal/factor"
	"sunstone/internal/tensor"
)

// fig5Fits reproduces the Fig. 5 example: 1D conv with P=14, K=4, C=4, R=3,
// a unified L1 of 8 entries, xxCR ordering at L2 (grow dims P and K, with C
// and R fixed at 1 in the L1 tile).
func fig5Fits(c Candidate) bool {
	p := get(c, "P")
	k := get(c, "K")
	// ifmap (p+3-1)*1... with R_L1 = 1 the window adds nothing: extent p.
	// weight k*1*1 = k; ofmap k*p.
	return p+k+k*p <= 8
}

func get(c Candidate, d tensor.Dim) int {
	if f, ok := c[d]; ok {
		return f
	}
	return 1
}

func TestFig5MaximalTiles(t *testing.T) {
	cands, stats := Enumerate(Space{
		GrowDims: []tensor.Dim{"K", "P"},
		Quota:    map[tensor.Dim]int{"K": 4, "P": 14, "C": 4, "R": 3},
		Fits:     fig5Fits,
	})
	if len(cands) == 0 {
		t.Fatal("expected maximal tiles")
	}
	for _, c := range cands {
		// Maximal: growing either dim must not fit.
		if fig5Fits(grow(c, "K", 4)) || fig5Fits(grow(c, "P", 14)) {
			t.Errorf("tile %s is not maximal", c.Key())
		}
		if !fig5Fits(c) {
			t.Errorf("tile %s does not fit", c.Key())
		}
		// Only grow dims may exceed 1.
		for d, f := range c {
			if f > 1 && d != "K" && d != "P" {
				t.Errorf("tile %s grew non-grow dim %s", c.Key(), d)
			}
		}
	}
	// The paper's node 12 (K=2, P=2: footprint 2+2+4 = 8) must be among the
	// survivors.
	found := false
	for _, c := range cands {
		if get(c, "K") == 2 && get(c, "P") == 2 {
			found = true
		}
	}
	if !found {
		keys := make([]string, len(cands))
		for i, c := range cands {
			keys[i] = c.Key()
		}
		t.Errorf("K=2,P=2 missing from maximal tiles %v", keys)
	}
	if stats.Survivors != len(cands) {
		t.Error("stats mismatch")
	}
}

// grow returns c with dimension d stepped to the next ladder rung (naive:
// next divisor-ish value), for maximality checking.
func grow(c Candidate, d tensor.Dim, quota int) Candidate {
	out := Candidate{}
	for k, v := range c {
		out[k] = v
	}
	cur := get(c, d)
	for v := cur + 1; v <= quota; v++ {
		if quota%v == 0 || v == quota {
			out[d] = v
			return out
		}
	}
	out[d] = quota
	return out
}

func TestUnitTileDoesNotFit(t *testing.T) {
	cands, _ := Enumerate(Space{
		GrowDims: []tensor.Dim{"K"},
		Quota:    map[tensor.Dim]int{"K": 4},
		Fits:     func(Candidate) bool { return false },
	})
	if cands != nil {
		t.Errorf("expected nil when the unit tile does not fit, got %v", cands)
	}
}

func TestEverythingFitsYieldsFullTile(t *testing.T) {
	cands, _ := Enumerate(Space{
		GrowDims: []tensor.Dim{"K", "P"},
		Quota:    map[tensor.Dim]int{"K": 4, "P": 8},
		Fits:     func(Candidate) bool { return true },
	})
	if len(cands) != 1 {
		t.Fatalf("unbounded memory should give exactly the full tile, got %d", len(cands))
	}
	if get(cands[0], "K") != 4 || get(cands[0], "P") != 8 {
		t.Errorf("full tile = %s, want K=4,P=8", cands[0].Key())
	}
}

func TestEmptyGrowDimsGrowsAll(t *testing.T) {
	cands, _ := Enumerate(Space{
		Quota: map[tensor.Dim]int{"A": 4, "B": 4},
		Fits: func(c Candidate) bool {
			return get(c, "A")*get(c, "B") <= 4
		},
	})
	if len(cands) == 0 {
		t.Fatal("expected candidates")
	}
	for _, c := range cands {
		if get(c, "A")*get(c, "B") != 4 {
			t.Errorf("maximal tile %s should use the full budget", c.Key())
		}
	}
}

func TestLadderHandlesPrimeQuota(t *testing.T) {
	// Quota 7 is prime: the padded ladder must still offer intermediate
	// rungs (2 and 4) so that a 5-entry memory is usable.
	cands, _ := Enumerate(Space{
		GrowDims: []tensor.Dim{"P"},
		Quota:    map[tensor.Dim]int{"P": 7},
		Fits:     func(c Candidate) bool { return get(c, "P") <= 5 },
	})
	if len(cands) != 1 || get(cands[0], "P") != 4 {
		t.Errorf("prime quota should land on padded rung 4, got %v", cands)
	}
}

func TestStatsCountsNodes(t *testing.T) {
	_, stats := Enumerate(Space{
		GrowDims: []tensor.Dim{"K", "P"},
		Quota:    map[tensor.Dim]int{"K": 4, "P": 14, "C": 4, "R": 3},
		Fits:     fig5Fits,
	})
	if stats.NodesVisited < stats.Survivors || stats.NodesVisited == 0 {
		t.Errorf("bad stats %+v", stats)
	}
}

func TestCandidateKey(t *testing.T) {
	if (Candidate{}).Key() != "unit" {
		t.Error("empty candidate key should be 'unit'")
	}
	c := Candidate{"K": 2, "P": 4, "C": 1}
	if c.Key() != "K=2,P=4" {
		t.Errorf("key = %q", c.Key())
	}
}

func TestMaxCandidatesPrefersLargestTiles(t *testing.T) {
	cands, _ := Enumerate(Space{
		GrowDims:      []tensor.Dim{"A", "B"},
		Quota:         map[tensor.Dim]int{"A": 16, "B": 16},
		Fits:          func(c Candidate) bool { return get(c, "A")*get(c, "B") <= 16 },
		MaxCandidates: 2,
	})
	if len(cands) != 2 {
		t.Fatalf("cap not applied: %d", len(cands))
	}
	for _, c := range cands {
		if get(c, "A")*get(c, "B") != 16 {
			t.Errorf("kept a non-maximal-product tile %s", c.Key())
		}
	}
}

func TestMaxNodesBudget(t *testing.T) {
	_, stats := Enumerate(Space{
		GrowDims: []tensor.Dim{"A", "B", "C"},
		Quota:    map[tensor.Dim]int{"A": 64, "B": 64, "C": 64},
		Fits:     func(Candidate) bool { return true },
		MaxNodes: 10,
	})
	if stats.NodesVisited > 12 {
		t.Errorf("budget not honored: %d nodes", stats.NodesVisited)
	}
}

// TestLadderBeyond255Rungs: a ladder with more than 255 rungs used to wrap
// the byte-sized rung in the visited key back to the root's, so the walk
// stopped at rung 255 having kept nothing. 1441440 has 288 divisors.
func TestLadderBeyond255Rungs(t *testing.T) {
	cands, stats := Enumerate(Space{
		GrowDims: []tensor.Dim{"I"},
		Quota:    map[tensor.Dim]int{"I": 1441440},
		Fits:     func(Candidate) bool { return true },
	})
	if len(cands) != 1 || get(cands[0], "I") != 1441440 {
		t.Fatalf("want the full tile I=1441440, got %v", cands)
	}
	if stats.NodesVisited != 288 || stats.Survivors != 1 {
		t.Errorf("stats = %+v, want one node per divisor (288) and 1 survivor", stats)
	}
}

// TestTwoLongLadders: two dimensions whose ladders both pass 255 rungs, grown
// along an L-shaped fitting region so each is climbed to the top while the
// other sits on a low rung — the rung vectors (256, r) and (0, r) must stay
// distinct nodes.
func TestTwoLongLadders(t *testing.T) {
	cands, stats := Enumerate(Space{
		GrowDims: []tensor.Dim{"A", "B"},
		Quota:    map[tensor.Dim]int{"A": 1441440, "B": 1441440},
		Fits:     func(c Candidate) bool { return get(c, "A") <= 2 || get(c, "B") <= 2 },
	})
	var keys []string
	for _, c := range cands {
		keys = append(keys, c.Key())
	}
	if want := []string{"A=1441440,B=2", "A=2,B=1441440"}; !slices.Equal(keys, want) {
		t.Errorf("maximal tiles = %v, want %v", keys, want)
	}
	// Every (a, b) with a or b in {1, 2}: 2·288 + 2·288 − 4.
	if stats.NodesVisited != 1148 {
		t.Errorf("NodesVisited = %d, want 1148", stats.NodesVisited)
	}
}

// TestEnumerateDoesNotWriteInputs: grow lists are compiled once per ordering
// and shared by every pool worker, so Enumerate must treat Space.GrowDims as
// read-only. Two concurrent enumerations over one unsorted slice are a data
// race under -race (make race) if either sorts it in place, and the slice
// must come back in its original order.
func TestEnumerateDoesNotWriteInputs(t *testing.T) {
	grow := []tensor.Dim{"P", "K", "C"}
	space := Space{
		GrowDims: grow,
		Quota:    map[tensor.Dim]int{"P": 8, "K": 8, "C": 8},
		Fits:     func(c Candidate) bool { return get(c, "P")*get(c, "K")*get(c, "C") <= 16 },
	}
	var wg sync.WaitGroup
	results := make([][]Candidate, 2)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], _ = Enumerate(space)
		}()
	}
	wg.Wait()
	if want := []tensor.Dim{"P", "K", "C"}; !slices.Equal(grow, want) {
		t.Errorf("Enumerate reordered the caller's GrowDims: %v", grow)
	}
	if len(results[0]) == 0 || len(results[0]) != len(results[1]) {
		t.Fatalf("concurrent enumerations disagree: %d vs %d candidates", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if results[0][i].Key() != results[1][i].Key() {
			t.Errorf("candidate %d: %s vs %s", i, results[0][i].Key(), results[1][i].Key())
		}
	}
}

// referenceEnumerate is the map-and-string enumeration this package shipped
// before the walk moved onto factor vectors (with the visited key widened so
// it is correct on any ladder). It is kept as the oracle for
// TestWalkMatchesReference: same candidates, same order, same Stats.
func referenceEnumerate(s Space) ([]Candidate, Stats) {
	var stats Stats
	minDiv := s.MinLadderDivisors
	if minDiv == 0 {
		minDiv = 4
	}
	grow := append([]tensor.Dim(nil), s.GrowDims...)
	if len(grow) == 0 {
		for d := range s.Quota {
			grow = append(grow, d)
		}
	}
	sort.Slice(grow, func(i, j int) bool { return grow[i] < grow[j] })
	ladders := make([][]int, len(grow))
	for i, d := range grow {
		ladders[i] = factor.Ladder(max(s.Quota[d], 1), minDiv)
	}
	cur := Candidate{}
	if !s.Fits(cur) {
		return nil, Stats{NodesVisited: 1}
	}
	maxNodes := s.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100_000
	}
	clone := func() Candidate {
		c := Candidate{}
		for d, f := range cur {
			c[d] = f
		}
		return c
	}
	visited := map[string]bool{}
	var cands []Candidate
	var walk func()
	walk = func() {
		if key := cur.Key(); visited[key] {
			return
		} else {
			visited[key] = true
		}
		stats.NodesVisited++
		if stats.NodesVisited > maxNodes {
			cands = append(cands, clone())
			return
		}
		anyChildFits := false
		for i, d := range grow {
			if stats.NodesVisited > maxNodes {
				break
			}
			next := -1
			for _, v := range ladders[i] {
				if v > get(cur, d) {
					next = v
					break
				}
			}
			if next < 0 {
				continue
			}
			prev, had := cur[d]
			cur[d] = next
			if s.Fits(cur) {
				anyChildFits = true
				walk()
			}
			if had {
				cur[d] = prev
			} else {
				delete(cur, d)
			}
		}
		if !anyChildFits {
			cands = append(cands, clone())
		}
	}
	walk()
	product := func(c Candidate) int64 {
		p := int64(1)
		for _, f := range c {
			p *= int64(f)
		}
		return p
	}
	if s.MaxCandidates > 0 && len(cands) > s.MaxCandidates {
		sort.Slice(cands, func(i, j int) bool {
			if pi, pj := product(cands[i]), product(cands[j]); pi != pj {
				return pi > pj
			}
			return cands[i].Key() < cands[j].Key()
		})
		cands = cands[:s.MaxCandidates]
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Key() < cands[j].Key() })
	stats.Survivors = len(cands)
	return cands, stats
}

// TestWalkMatchesReference drives both enumerations over random spaces —
// dimension names where one is a prefix of another (Key's entry order is not
// plain name order there), prime and composite quotas, node budgets small
// enough to cut the walk, candidate caps — and requires identical output.
func TestWalkMatchesReference(t *testing.T) {
	names := []tensor.Dim{"P", "P1", "PQ", "K", "C", "R2", "R"}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		s := Space{Quota: map[tensor.Dim]int{}}
		weight := map[tensor.Dim]int{}
		for _, i := range rng.Perm(len(names))[:1+rng.Intn(4)] {
			s.Quota[names[i]] = 1 + rng.Intn(60)
			weight[names[i]] = 1 + rng.Intn(3)
			if rng.Intn(3) > 0 {
				s.GrowDims = append(s.GrowDims, names[i])
			}
		}
		capacity := 1 + rng.Intn(400)
		s.Fits = func(c Candidate) bool {
			used := 0
			for d, f := range c {
				used += weight[d] * f
			}
			return used <= capacity
		}
		if rng.Intn(3) == 0 {
			s.MaxNodes = 1 + rng.Intn(40)
		}
		if rng.Intn(2) == 0 {
			s.MaxCandidates = 1 + rng.Intn(4)
		}
		got, gotStats := Enumerate(s)
		want, wantStats := referenceEnumerate(s)
		if gotStats != wantStats {
			t.Fatalf("trial %d: stats %+v, reference %+v (space %+v)", trial, gotStats, wantStats, s)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("trial %d candidate %d: %s, reference %s", trial, i, got[i].Key(), want[i].Key())
			}
		}
	}
}

// TestWalkAllocsIndependentOfNodes: a reused Walker allocates nothing once
// its buffers have grown, however many nodes the walk visits.
func TestWalkAllocsIndependentOfNodes(t *testing.T) {
	var wk Walker
	ladder := factor.Ladder(720, DefaultMinLadderDivisors) // memoized, as the search's compiled ladder cache does
	for _, capacity := range []int{8, 4096} {
		v := Vec{
			Dims:   []tensor.Dim{"C", "K", "P"},
			Quota:  []int{720, 720, 720},
			Fits:   func(fs []int) bool { return fs[0]*fs[1]*fs[2] <= capacity },
			Ladder: func(int, int) []int { return ladder },
		}
		_, stats := wk.Walk(v)
		if allocs := testing.AllocsPerRun(10, func() { wk.Walk(v) }); allocs != 0 {
			t.Errorf("capacity %d (%d nodes): %.0f allocs per walk on a warm Walker, want 0", capacity, stats.NodesVisited, allocs)
		}
	}
}
