package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sunstone"
)

func TestParseDims(t *testing.T) {
	d, err := parseDims("N=1,K=64,c=32", []string{"N", "K", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if d["N"] != 1 || d["K"] != 64 || d["C"] != 32 {
		t.Errorf("parsed %v", d)
	}
	for _, bad := range []string{"", "K=0", "K=x", "K", "K=64"} {
		if _, err := parseDims(bad, []string{"K", "C"}); err == nil {
			t.Errorf("parseDims(%q) should fail", bad)
		}
	}
}

func TestPickArch(t *testing.T) {
	for _, name := range []string{"conventional", "simba", "diannao", "tiny"} {
		if _, err := pickArch(name, ""); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := pickArch("nope", ""); err == nil {
		t.Error("unknown arch should fail")
	}
	// -arch-file wins over -arch.
	data, _ := sunstone.EncodeArch(sunstone.Tiny(64))
	file := filepath.Join(t.TempDir(), "arch.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if a, err := pickArch("simba", file); err != nil || a.Name != "tiny" {
		t.Errorf("-arch-file: got %v, %v; want the tiny document", a, err)
	}
}

// TestSearchOptions: every search flag reaches the one Options value that
// both the single-workload search and -all-layers run under.
func TestSearchOptions(t *testing.T) {
	if opt, err := searchOptions(); err != nil || opt.Retry != nil || opt.Objective != sunstone.MinEDP {
		t.Fatalf("default flags: %+v, %v; want EDP and no Retry", opt, err)
	}
	for name, value := range map[string]string{
		"beam": "7", "objective": "Energy", "top-down": "true", "threads": "3", "timeout": "2s",
		"seed": "false", "retries": "4", "fallback": "innermost-fit, cosa",
	} {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		defer flag.Set(name, old)
	}
	opt, err := searchOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.BeamWidth != 7 || opt.Objective != sunstone.MinEnergy || opt.Direction != sunstone.TopDown ||
		opt.Threads != 3 || opt.Timeout != 2*time.Second || opt.Analytical.Seed || !opt.Analytical.Bounds {
		t.Errorf("flags lost on the way to Options: %+v", opt)
	}
	if r := opt.Retry; r == nil || r.Retries != 4 || len(r.Fallbacks) != 2 || r.Fallbacks[1] != "cosa" {
		t.Errorf("Retry = %+v, want 4 retries then innermost-fit, cosa", opt.Retry)
	}
	flag.Set("objective", "speed")
	if _, err := searchOptions(); err == nil {
		t.Error("unknown objective should fail")
	}
}

func TestPickTensorDataset(t *testing.T) {
	for _, name := range []string{"nell2", "netflix", "poisson1"} {
		if _, err := pickTensorDataset(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := pickTensorDataset("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}
