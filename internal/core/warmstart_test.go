package core

import (
	"strings"
	"testing"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/mapping"
)

// TestWarmStartEqualOrBetter: resuming from a previous run's mapping must
// never finish worse than that mapping — the crash-recovery contract.
func TestWarmStartEqualOrBetter(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	cold, err := solve(w, arch.Simba(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solve(w, arch.Simba(), Options{WarmStart: cold.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStartEDP <= 0 {
		t.Errorf("warm run reports no WarmStartEDP")
	}
	if warm.WarmStartEDP != cold.Report.EDP {
		t.Errorf("WarmStartEDP %g != the checkpoint's EDP %g", warm.WarmStartEDP, cold.Report.EDP)
	}
	if warm.Report.EDP > cold.Report.EDP {
		t.Errorf("warm start finished worse than its checkpoint: %g vs %g", warm.Report.EDP, cold.Report.EDP)
	}
}

// TestWarmStartUnderImmediateDeadline: even a deadline too short for any
// enumeration returns the warm-start incumbent (valid, audit-passing),
// not a failure — the anytime floor a recovered job stands on when its
// original deadline already expired.
func TestWarmStartUnderImmediateDeadline(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	cold, err := solve(w, arch.Simba(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(w, arch.Simba(), Options{
		WarmStart: cold.Mapping,
		Timeout:   time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("warm start under immediate deadline: %v", err)
	}
	if res.Mapping == nil {
		t.Fatal("no mapping returned")
	}
	if res.Report.EDP > cold.Report.EDP {
		t.Errorf("deadline-cut warm run worse than checkpoint: %g vs %g", res.Report.EDP, cold.Report.EDP)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Errorf("returned mapping does not validate: %v", err)
	}
}

// TestWarmStartRebindsForeignInstance: a mapping built against different
// Workload/Arch object identities (as a deserialized checkpoint is) must
// be rebound, not rejected, as long as the shapes line up.
func TestWarmStartRebindsForeignInstance(t *testing.T) {
	w1 := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	w2 := conv2D(t, 1, 16, 16, 14, 14, 3, 3) // same shape, distinct instance
	cold, err := solve(w1, arch.Simba(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solve(w2, arch.Simba(), Options{WarmStart: cold.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStartEDP <= 0 {
		t.Errorf("foreign-instance warm start was not installed (WarmStartEDP = %g)", warm.WarmStartEDP)
	}
	if warm.Report.EDP > cold.Report.EDP {
		t.Errorf("warm run worse than checkpoint: %g vs %g", warm.Report.EDP, cold.Report.EDP)
	}
}

// TestWarmStartInvalidDegrades: a warm start that cannot bind to the
// problem (wrong workload entirely) degrades to a cold search with the
// rejection recorded, never a hard failure or a corrupted result.
func TestWarmStartInvalidDegrades(t *testing.T) {
	wRight := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	wWrong := conv1D(t, 8, 8, 10, 3)
	foreign, err := solve(wWrong, arch.Tiny(256), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := solve(wRight, arch.Simba(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(wRight, arch.Simba(), Options{WarmStart: foreign.Mapping})
	if err != nil {
		t.Fatalf("invalid warm start failed the run: %v", err)
	}
	if res.WarmStartEDP != 0 {
		t.Errorf("rejected warm start still reported WarmStartEDP %g", res.WarmStartEDP)
	}
	if res.Report.EDP != cold.Report.EDP {
		t.Errorf("degraded run diverged from cold: %g vs %g", res.Report.EDP, cold.Report.EDP)
	}
	found := false
	for _, e := range res.CandidateErrors {
		if strings.Contains(e.Error(), "warm start rejected") {
			found = true
		}
	}
	if !found {
		t.Errorf("rejection not recorded in CandidateErrors: %v", res.CandidateErrors)
	}

	// An empty mapping shell must degrade the same way.
	res2, err := solve(wRight, arch.Simba(), Options{WarmStart: &mapping.Mapping{}})
	if err != nil {
		t.Fatalf("empty warm start failed the run: %v", err)
	}
	if res2.Report.EDP != cold.Report.EDP {
		t.Errorf("empty-shell warm start changed the result: %g vs %g", res2.Report.EDP, cold.Report.EDP)
	}
}

// TestWarmStartDeterministic: a warm-started search is as deterministic as
// a cold one.
func TestWarmStartDeterministic(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	cold, err := solve(w, arch.Simba(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmStart: cold.Mapping}
	first, err := solve(w, arch.Simba(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := solve(w, arch.Simba(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.EDP != first.Report.EDP || res.Mapping.String() != first.Mapping.String() {
			t.Fatalf("warm run %d diverged: %g vs %g", i, res.Report.EDP, first.Report.EDP)
		}
	}
}
