package timeloop

import (
	"context"
	"testing"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/workloads"
)

func quickCfg(seed int64) Config {
	// Generous MaxTime: the wall-clock deadline must never bind in tests,
	// or sample counts (and thus results) would depend on machine load.
	return Config{Name: "TL-test", TO: 500, VC: 50, Threads: 4, MaxTime: 120 * time.Second, Seed: seed}
}

func TestFindsValidMapping(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.TinySpatial(256, 1<<16, 4)
	res := New(quickCfg(1)).MapContext(context.Background(), w, a)
	if !res.Valid {
		t.Fatalf("expected a valid mapping: %s", res.InvalidReason)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("returned mapping is illegal: %v", err)
	}
	if res.Evaluated <= 0 {
		t.Error("no samples evaluated")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(256)
	r1 := New(quickCfg(42)).MapContext(context.Background(), w, a)
	r2 := New(quickCfg(42)).MapContext(context.Background(), w, a)
	if r1.Report.EDP != r2.Report.EDP {
		t.Errorf("same seed must reproduce: %v vs %v", r1.Report.EDP, r2.Report.EDP)
	}
}

func TestSlowBeatsOrMatchesFast(t *testing.T) {
	w := workloads.Conv1D("c", 16, 16, 56, 3)
	a := arch.TinySpatial(512, 1<<16, 16)
	fast := New(Config{Name: "f", TO: 500, VC: 10, Threads: 4, MaxTime: 120 * time.Second, Seed: 7}).MapContext(context.Background(), w, a)
	slow := New(Config{Name: "s", TO: 2000, VC: 300, Threads: 4, MaxTime: 120 * time.Second, Seed: 7}).MapContext(context.Background(), w, a)
	if !fast.Valid || !slow.Valid {
		t.Fatal("both configs should find mappings")
	}
	if slow.Evaluated <= fast.Evaluated {
		t.Errorf("slow config should sample more: fast %d, slow %d", fast.Evaluated, slow.Evaluated)
	}
	if slow.Report.EDP > fast.Report.EDP*1.001 {
		t.Errorf("more search must not hurt: fast %.3e, slow %.3e", fast.Report.EDP, slow.Report.EDP)
	}
}

func TestImpossibleArchReportsInvalid(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(2) // cannot even hold one word of each tensor
	res := New(quickCfg(1)).MapContext(context.Background(), w, a)
	if res.Valid {
		t.Fatal("no valid mapping exists; result must say so")
	}
	if res.InvalidReason == "" {
		t.Error("missing invalid reason")
	}
}

func TestTableVConfigs(t *testing.T) {
	f, s := Fast(), Slow()
	if f.TO != 20000 || f.VC != 25 || s.TO != 80000 || s.VC != 1500 {
		t.Error("Table V hyper-parameters altered")
	}
	if f.Threads != 8 || s.Threads != 8 {
		t.Error("paper runs 8 threads")
	}
}

func TestNameAndWorksOnSimba(t *testing.T) {
	m := New(quickCfg(3))
	if m.Name() != "TL-test" {
		t.Error("name")
	}
	// Timeloop supports multi-spatial-level architectures (the only
	// baseline besides CoSA that does, per Section V-B3).
	w := workloads.Conv2D("c", 1, 16, 16, 8, 8, 3, 3, 1, 1)
	res := m.MapContext(context.Background(), w, arch.Simba())
	if !res.Valid {
		t.Fatalf("TL should find some mapping on Simba: %s", res.InvalidReason)
	}
}
