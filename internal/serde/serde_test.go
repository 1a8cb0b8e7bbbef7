package serde

import (
	"strings"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

func TestWorkloadRoundTrip(t *testing.T) {
	orig := workloads.Conv2D("layer", 2, 8, 8, 7, 7, 3, 3, 2, 2)
	data, err := EncodeWorkload(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || len(back.Dims) != len(orig.Dims) {
		t.Fatalf("round trip changed structure: %v vs %v", back, orig)
	}
	for d, n := range orig.Dims {
		if back.Dims[d] != n {
			t.Errorf("dim %s: %d vs %d", d, back.Dims[d], n)
		}
	}
	// Sliding-window strides survive.
	fp1 := orig.Tensor(arch.Ifmap).Footprint(orig.FullExtents())
	fp2 := back.Tensor(arch.Ifmap).Footprint(back.FullExtents())
	if fp1 != fp2 {
		t.Errorf("ifmap footprint changed: %d vs %d", fp2, fp1)
	}
}

func TestWorkloadRoundTripNonConv(t *testing.T) {
	orig := workloads.MTTKRP("m", 10, 8, 6, 4)
	data, err := EncodeWorkload(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tensors) != 4 || len(back.Outputs()) != 1 {
		t.Error("tensor structure lost")
	}
}

func TestDecodeWorkloadRejectsInvalid(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":"x","dims":{},"tensors":[]}`,
		`{"name":"x","dims":{"K":4},"tensors":[{"name":"o","axes":[[{"dim":"Z","stride":1}]],"output":true}]}`,
	}
	for _, c := range cases {
		if _, err := DecodeWorkload([]byte(c)); err == nil {
			t.Errorf("DecodeWorkload(%q) should fail", c)
		}
	}
}

// archPresets is every built-in architecture preset; the parameterized Tiny
// family is pinned at representative sizes.
func archPresets() []*arch.Arch {
	return []*arch.Arch{
		arch.Conventional(),
		arch.Simba(),
		arch.DianNao(),
		arch.TinySpatial(512, 1<<16, 4),
	}
}

func TestArchRoundTrip(t *testing.T) {
	for _, orig := range archPresets() {
		data, err := EncodeArch(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeArch(data)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		if back.TotalMACs() != orig.TotalMACs() {
			t.Errorf("%s: MACs %d vs %d", orig.Name, back.TotalMACs(), orig.TotalMACs())
		}
		if len(back.Levels) != len(orig.Levels) {
			t.Errorf("%s: levels %d vs %d", orig.Name, len(back.Levels), len(orig.Levels))
		}
		for i := range orig.Levels {
			if back.Levels[i].Fanout != orig.Levels[i].Fanout {
				t.Errorf("%s level %d fanout changed", orig.Name, i)
			}
		}
		// Bypass sets survive (Simba's L2 excludes weights).
		if orig.Name == "simba-like" && back.Levels[2].Keeps(arch.Weight) {
			t.Error("simba bypass lost in round trip")
		}
	}
}

// TestArchRoundTripFidelity is the full-fidelity contract for every preset:
// decode(encode(a)) must re-encode to byte-identical JSON, and the semantic
// fields the optimizer and the Engine's content-addressed cache key depend on
// — buffer capacities, energies, bypass sets, fanout, NoC parameters — must
// survive exactly. Encode-stability is what makes EncodeArch usable as a
// cache key: two structurally equal archs always key identically.
func TestArchRoundTripFidelity(t *testing.T) {
	for _, orig := range archPresets() {
		t.Run(orig.Name, func(t *testing.T) {
			data, err := EncodeArch(orig)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeArch(data)
			if err != nil {
				t.Fatal(err)
			}
			data2, err := EncodeArch(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(data2) {
				t.Errorf("re-encode not byte-identical:\nfirst:\n%s\nsecond:\n%s", data, data2)
			}
			if back.Name != orig.Name || back.MACPJ != orig.MACPJ {
				t.Errorf("name/MAC energy changed: %q %g vs %q %g",
					back.Name, back.MACPJ, orig.Name, orig.MACPJ)
			}
			for i := range orig.Levels {
				ol, bl := &orig.Levels[i], &back.Levels[i]
				if bl.Name != ol.Name || bl.Fanout != ol.Fanout ||
					bl.AllowSpatialReduction != ol.AllowSpatialReduction {
					t.Errorf("level %d structure changed: %+v vs %+v", i, bl, ol)
				}
				if len(bl.Buffers) != len(ol.Buffers) {
					t.Fatalf("level %d buffer count %d vs %d", i, len(bl.Buffers), len(ol.Buffers))
				}
				for j := range ol.Buffers {
					ob, bb := &ol.Buffers[j], &bl.Buffers[j]
					if bb.Name != ob.Name || bb.Bytes != ob.Bytes ||
						bb.ReadPJ != ob.ReadPJ || bb.WritePJ != ob.WritePJ {
						t.Errorf("level %d buffer %d changed: %+v vs %+v", i, j, bb, ob)
					}
					if len(bb.Tensors) != len(ob.Tensors) {
						t.Errorf("level %d buffer %d bypass set changed", i, j)
					}
				}
			}
		})
	}
}

func TestDecodeArchRejectsInvalid(t *testing.T) {
	if _, err := DecodeArch([]byte(`{"name":"x","mac_pj":1,"levels":[]}`)); err == nil {
		t.Error("empty arch should fail validation")
	}
	if _, err := DecodeArch([]byte(`garbage`)); err == nil {
		t.Error("bad JSON should fail")
	}
	// Names that collide or cannot be resolved in a cost report's
	// "level/buffer/tensor" keys.
	for name, rename := range map[string]func(*arch.Arch){
		"duplicate level name": func(a *arch.Arch) { a.Levels[0].Name = a.Levels[1].Name },
		"slash in level name":  func(a *arch.Arch) { a.Levels[0].Name = "pe/l1" },
		"slash in buffer name": func(a *arch.Arch) { a.Levels[0].Buffers[0].Name = "w/buf" },
	} {
		a := arch.Tiny(256)
		rename(a)
		data, err := EncodeArch(a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeArch(data); err == nil {
			t.Errorf("%s: DecodeArch accepted it", name)
		}
	}
}

func TestDecodeMappingRejects(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(256)
	if _, err := DecodeMapping([]byte(`{"levels":[]}`), w, a); err == nil ||
		!strings.Contains(err.Error(), "levels") {
		t.Error("level-count mismatch should fail")
	}
	// A structurally fine but illegal mapping (no coverage).
	bad := `{"workload":"c","arch":"tiny","levels":[{"level":"L1"},{"level":"DRAM"}]}`
	if _, err := DecodeMapping([]byte(bad), w, a); err == nil ||
		!strings.Contains(err.Error(), "illegal") {
		t.Error("illegal mapping should be rejected by validation")
	}
}

// FuzzDecodeWorkload ensures the JSON loader never panics and everything it
// accepts re-validates.
func FuzzDecodeWorkload(f *testing.F) {
	seed, _ := EncodeWorkload(workloads.Conv1D("c", 2, 2, 4, 2))
	f.Add(string(seed))
	f.Add(`{"name":"x","dims":{"K":4},"tensors":[{"name":"o","axes":[[{"dim":"K","stride":1}]],"output":true}]}`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		w, err := DecodeWorkload([]byte(src))
		if err != nil {
			return
		}
		if verr := w.Validate(); verr != nil {
			t.Errorf("DecodeWorkload accepted an invalid workload: %v", verr)
		}
	})
}

// trivialMapping builds the everything-at-DRAM mapping of w on a: all loops
// temporal at the top (unbounded) level, workload order at every level.
func trivialMapping(w *tensor.Workload, a *arch.Arch) *mapping.Mapping {
	m := mapping.New(w, a)
	top := len(m.Levels) - 1
	for d, n := range w.Dims {
		m.Levels[top].Temporal[d] = n
	}
	for lvl := range m.Levels {
		m.Levels[lvl].Order = append([]tensor.Dim(nil), w.Order...)
	}
	return m
}

// TestDecodeTruncatedNeverPanics feeds every prefix of valid encodings to
// the three decoders: truncated JSON must yield a clean error, never a panic,
// and anything accepted must re-validate.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(256)
	wj, err := EncodeWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := EncodeArch(a)
	if err != nil {
		t.Fatal(err)
	}
	m := trivialMapping(w, a)
	if verr := m.Validate(); verr != nil {
		t.Fatalf("trivial mapping invalid: %v", verr)
	}
	mj, err := EncodeMapping(m)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, decode func([]byte) error) {
		for i := 0; i <= len(data); i++ {
			prefix := data[:i]
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on %d-byte truncation: %v", name, i, r)
					}
				}()
				_ = decode(prefix)
			}()
		}
	}
	check("DecodeWorkload", wj, func(b []byte) error {
		dw, derr := DecodeWorkload(b)
		if derr == nil {
			if verr := dw.Validate(); verr != nil {
				t.Fatalf("accepted workload fails validation: %v", verr)
			}
		}
		return derr
	})
	check("DecodeArch", aj, func(b []byte) error {
		da, derr := DecodeArch(b)
		if derr == nil {
			if verr := da.Validate(); verr != nil {
				t.Fatalf("accepted arch fails validation: %v", verr)
			}
		}
		return derr
	})
	check("DecodeMapping", mj, func(b []byte) error {
		_, derr := DecodeMapping(b, w, a)
		return derr
	})
}

// TestDecodeWorkloadMalformed: structurally valid JSON carrying semantic
// corruption — unknown dims in axes, duplicate tensors, empty names — must
// error, never panic.
func TestDecodeWorkloadMalformed(t *testing.T) {
	cases := []string{
		// axis references a dimension that was never declared
		`{"name":"x","dims":{"K":4},"tensors":[{"name":"o","axes":[[{"dim":"Z","stride":1}]],"output":true}]}`,
		// zero-sized dimension
		`{"name":"x","dims":{"K":0},"tensors":[{"name":"o","axes":[[{"dim":"K","stride":1}]],"output":true}]}`,
		// negative dimension
		`{"name":"x","dims":{"K":-3},"tensors":[{"name":"o","axes":[[{"dim":"K","stride":1}]],"output":true}]}`,
		// no output tensor
		`{"name":"x","dims":{"K":4},"tensors":[{"name":"a","axes":[[{"dim":"K","stride":1}]]}]}`,
		// no tensors at all
		`{"name":"x","dims":{"K":4},"tensors":[]}`,
	}
	for _, src := range cases {
		if _, err := DecodeWorkload([]byte(src)); err == nil {
			t.Errorf("DecodeWorkload accepted malformed input %s", src)
		}
	}
}

// TestDecodeMappingUnknownDim: a mapping JSON whose loops name dimensions the
// workload does not have must be rejected by validation, not crash coverage
// accounting.
func TestDecodeMappingUnknownDim(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(256)
	src := `{"workload":"c","arch":"tiny","levels":[` +
		`{"level":"L1"},` +
		`{"level":"DRAM","temporal":{"Z":8,"K":8,"C":8,"P":28,"R":3}}]}`
	if _, err := DecodeMapping([]byte(src), w, a); err == nil {
		t.Error("DecodeMapping accepted a mapping with an unknown dimension")
	}
}

// TestMappingFormatVersion pins the mapping-file versioning contract: encoded
// files carry the sunstone/v1 stamp and round-trip, stampless (pre-versioning)
// files still load as v1, and an unrecognized stamp is a loud error.
func TestMappingFormatVersion(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(256)
	m := trivialMapping(w, a)
	data, err := EncodeMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"format": "`+FormatV1+`"`) {
		t.Fatalf("encoded mapping is missing the %s stamp:\n%s", FormatV1, data)
	}
	back, err := DecodeMapping(data, w, a)
	if err != nil {
		t.Fatalf("stamped file should round-trip: %v", err)
	}
	if back.Levels[len(back.Levels)-1].Temporal["W"] != w.Dims["W"] {
		t.Error("round trip lost the top-level temporal loops")
	}

	headerless := strings.Replace(string(data), `"format": "`+FormatV1+`",`, "", 1)
	if strings.Contains(headerless, "format") {
		t.Fatalf("failed to strip the stamp for the headerless case:\n%s", headerless)
	}
	if _, err := DecodeMapping([]byte(headerless), w, a); err != nil {
		t.Errorf("headerless file must still decode as v1: %v", err)
	}

	future := strings.Replace(string(data), FormatV1, "sunstone/v99", 1)
	if _, err := DecodeMapping([]byte(future), w, a); err == nil ||
		!strings.Contains(err.Error(), "sunstone/v99") {
		t.Errorf("unknown format must be rejected with the offending stamp, got %v", err)
	}
}
