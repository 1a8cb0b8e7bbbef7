package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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
// both the single-workload search and -all-layers run under, and that value
// is always the product search — the Table VI study and the ablations have
// no flag.
func TestSearchOptions(t *testing.T) {
	for _, gone := range []string{"top-down", "seed", "bounds"} {
		if flag.Lookup(gone) != nil {
			t.Errorf("-%s is a study switch, not a product flag", gone)
		}
	}
	if opt, err := searchOptions(); err != nil || opt.Retry != nil || opt.Objective != sunstone.MinEDP {
		t.Fatalf("default flags: %+v, %v; want EDP and no Retry", opt, err)
	}
	for name, value := range map[string]string{
		"beam": "7", "objective": "Energy", "threads": "3", "timeout": "2s", "retries": "4",
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
	if opt.BeamWidth != 7 || opt.Objective != sunstone.MinEnergy || opt.Threads != 3 ||
		opt.Timeout != 2*time.Second || opt.Study != nil {
		t.Errorf("flags lost on the way to Options: %+v", opt)
	}
	if r := opt.Retry; r == nil || *r != (sunstone.RetryPolicy{Retries: 4}) {
		t.Errorf("Retry = %+v, want 4 retries and the default fallback", opt.Retry)
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

// TestAllLayersGolden pins what -all-layers prints (the wall-clock figure
// masked), captured from the build that still had a separate per-layer
// scheduler: without -fuse, one line per layer with its repeat count — under
// any objective — and with -fuse one line per position plus the fusion cut.
func TestAllLayersGolden(t *testing.T) {
	elapsed := regexp.MustCompile(`scheduled in [^)]*`)
	for _, tc := range []struct {
		name  string
		flags map[string]string
		want  string
	}{
		{"per-layer", map[string]string{"net": "resnet18", "batch": "1", "arch": "tiny", "beam": "4"}, goldenPerLayer},
		{"per-layer-energy", map[string]string{"net": "resnet18", "batch": "1", "arch": "tiny", "beam": "4", "objective": "energy"}, goldenPerLayerEnergy},
		{"fuse", map[string]string{"net": "transformer", "arch": "conventional", "beam": "4", "fuse": "true"}, goldenFuse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, value := range tc.flags {
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
			a, err := pickArch(*archName, "")
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			runAllLayers(&out, sunstone.NewEngine(), a, opt)
			if got := elapsed.ReplaceAllString(out.String(), "scheduled in X"); got != tc.want {
				t.Errorf("output changed:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}

const goldenPerLayer = `layer        x   EDP          energy pJ    cycles
conv1        1   3.603e+17    3.053e+09    118013952
conv2_x      4   3.425e+17    2.962e+09    115605504
conv3_1      1   1.386e+17    2.397e+09    57802752
conv3_ds     1   2.465e+15    3.837e+08    6422528
conv3_x      3   3.401e+17    2.942e+09    115605504
conv4_1      1   1.437e+17    2.487e+09    57802752
conv4_ds     1   2.465e+15    3.838e+08    6422528
conv4_x      3   3.390e+17    2.932e+09    115605504
conv5_1      1   1.541e+17    2.666e+09    57802752
conv5_ds     1   2.472e+15    3.848e+08    6422528
conv5_x      3   4.252e+17    3.678e+09    115605504

network totals: 5.2262e+10 pJ, 1.814e+09 cycles, EDP 9.4780e+19 (scheduled in X)
`

const goldenPerLayerEnergy = `layer        x   EDP          energy pJ    cycles
conv1        1   3.603e+17    3.053e+09    118013952
conv2_x      4   3.425e+17    2.962e+09    115605504
conv3_1      1   1.386e+17    2.397e+09    57802752
conv3_ds     1   2.465e+15    3.837e+08    6422528
conv3_x      3   3.401e+17    2.942e+09    115605504
conv4_1      1   1.437e+17    2.487e+09    57802752
conv4_ds     1   2.465e+15    3.838e+08    6422528
conv4_x      3   3.390e+17    2.932e+09    115605504
conv5_1      1   1.541e+17    2.666e+09    57802752
conv5_ds     1   2.472e+15    3.848e+08    6422528
conv5_x      3   4.524e+17    3.424e+09    132120576

network totals: 5.1500e+10 pJ, 1.863e+09 cycles, EDP 9.5951e+19 (scheduled in X)
`

const goldenFuse = `layer        x   EDP          energy pJ    cycles
qkv_proj     1   1.393e+14    1.062e+09    131200
attn_out     1   1.301e+14    9.919e+08    131200
ffn_up       1   2.082e+15    3.968e+09    524800
ffn_down     1   2.086e+15    3.978e+09    524416

fusion cut (1 groups):
  [ 0, 4) fused @L2  qkv_proj+attn_out+ffn_up+ffn_down        1.000e+10 pJ  1.312e+06 cycles
unfused EDP 1.4257e+16 -> fused EDP 1.3116e+16 (1.09x better)

network totals: 9.9999e+09 pJ, 1.312e+06 cycles, EDP 1.3116e+16 (scheduled in X)
`
