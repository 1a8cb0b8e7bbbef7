package arch

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, a := range []*Arch{Conventional(), Simba(), DianNao(), Tiny(8), TinySpatial(8, 64, 4)} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestTotalMACs(t *testing.T) {
	if got := Conventional().TotalMACs(); got != 1024 {
		t.Errorf("conventional MACs = %d, want 1024 (32x32)", got)
	}
	if got := Simba().TotalMACs(); got != 1024 {
		t.Errorf("simba MACs = %d, want 1024 (16 PEs x 8 lanes x width 8)", got)
	}
	if got := DianNao().TotalMACs(); got != 256 {
		t.Errorf("diannao MACs = %d, want 256 (16x16 NFU)", got)
	}
}

func TestSimbaBypassAndPrecision(t *testing.T) {
	a := Simba()
	// L2 (index 2) keeps ifmap and ofmap but NOT weights.
	l2 := &a.Levels[2]
	if !l2.Keeps(Ifmap) || !l2.Keeps(Ofmap) {
		t.Error("simba L2 must keep ifmap and ofmap")
	}
	if l2.Keeps(Weight) {
		t.Error("simba L2 must not keep weights (bypass)")
	}
	// Weight parent above the PE buffers (level 1) must therefore be DRAM (3).
	if got := a.ParentOf(Weight, 1); got != 3 {
		t.Errorf("weight parent above PEBuf = level %d, want 3 (DRAM)", got)
	}
	// Ifmap parent above PE buffers is L2.
	if got := a.ParentOf(Ifmap, 1); got != 2 {
		t.Errorf("ifmap parent above PEBuf = level %d, want 2 (L2)", got)
	}
	// Mixed precision per Table IV.
	if a.Bits(Weight) != 8 || a.Bits(Ifmap) != 8 || a.Bits(Ofmap) != 24 {
		t.Errorf("simba precisions = %d/%d/%d, want 8/8/24",
			a.Bits(Weight), a.Bits(Ifmap), a.Bits(Ofmap))
	}
	// The weight register level keeps only weights.
	reg := &a.Levels[0]
	if !reg.Keeps(Weight) || reg.Keeps(Ifmap) || reg.Keeps(Ofmap) {
		t.Error("simba Reg level must keep only weights")
	}
}

func TestKeeperBelow(t *testing.T) {
	a := Simba()
	// Nearest keeper of weight at or below L2 (index 2) is PEBuf (1).
	if got := a.KeeperBelow(Weight, 2); got != 1 {
		t.Errorf("KeeperBelow(weight, 2) = %d, want 1", got)
	}
	if got := a.KeeperBelow(Ifmap, 0); got != -1 {
		t.Errorf("KeeperBelow(ifmap, 0) = %d, want -1 (Reg holds only weights)", got)
	}
}

func TestBitsDefaults(t *testing.T) {
	a := Conventional()
	if a.Bits("anything") != 16 {
		t.Error("conventional should default to 16-bit words")
	}
	empty := &Arch{}
	if empty.Bits("x") != 16 {
		t.Error("zero-value arch should fall back to 16 bits")
	}
}

func TestEnergiesIncreaseUpTheHierarchy(t *testing.T) {
	for _, a := range []*Arch{Conventional(), Tiny(8)} {
		var prev float64
		for i := range a.Levels {
			e := a.Levels[i].Buffers[0].ReadPJ
			if e < prev {
				t.Errorf("%s: level %s read energy %.2f < lower level %.2f",
					a.Name, a.Levels[i].Name, e, prev)
			}
			prev = e
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*Arch{
		{Name: "one-level", MACPJ: 1, Levels: []Level{{Name: "only", Fanout: 1, Buffers: []Buffer{{Name: "b"}}}}},
		{Name: "bounded-top", MACPJ: 1, Levels: []Level{
			{Name: "l1", Fanout: 1, Buffers: []Buffer{{Name: "b", Bytes: 8}}},
			{Name: "top", Fanout: 1, Buffers: []Buffer{{Name: "t", Bytes: 8}}},
		}},
		{Name: "zero-fanout", MACPJ: 1, Levels: []Level{
			{Name: "l1", Fanout: 0, Buffers: []Buffer{{Name: "b", Bytes: 8}}},
			{Name: "top", Fanout: 1, Buffers: []Buffer{{Name: "t"}}},
		}},
		{Name: "no-mac-energy", MACPJ: 0, Levels: []Level{
			{Name: "l1", Fanout: 1, Buffers: []Buffer{{Name: "b", Bytes: 8}}},
			{Name: "top", Fanout: 1, Buffers: []Buffer{{Name: "t"}}},
		}},
		{Name: "partial-top", MACPJ: 1, Levels: []Level{
			{Name: "l1", Fanout: 1, Buffers: []Buffer{{Name: "b", Bytes: 8}}},
			{Name: "top", Fanout: 1, Buffers: []Buffer{{Name: "t", Tensors: []string{"x"}}}},
		}},
		// Names a cost report ("level/buffer/tensor" keys) cannot tell apart.
		{Name: "duplicate-level-name", MACPJ: 1, Levels: []Level{
			{Name: "mem", Fanout: 1, Buffers: []Buffer{{Name: "b", Bytes: 8}}},
			{Name: "mem", Fanout: 1, Buffers: []Buffer{{Name: "t"}}},
		}},
		{Name: "slash-in-level-name", MACPJ: 1, Levels: []Level{
			{Name: "pe/l1", Fanout: 1, Buffers: []Buffer{{Name: "b", Bytes: 8}}},
			{Name: "top", Fanout: 1, Buffers: []Buffer{{Name: "t"}}},
		}},
		{Name: "slash-in-buffer-name", MACPJ: 1, Levels: []Level{
			{Name: "l1", Fanout: 1, Buffers: []Buffer{{Name: "w/buf", Bytes: 8}}},
			{Name: "top", Fanout: 1, Buffers: []Buffer{{Name: "t"}}},
		}},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", a.Name)
		}
	}
}

func TestBufferHolds(t *testing.T) {
	b := Buffer{Name: "x", Tensors: []string{"a", "b"}}
	if !b.Holds("a") || b.Holds("c") {
		t.Error("Holds with explicit tensor list wrong")
	}
	all := Buffer{Name: "y"}
	if !all.Holds("anything") {
		t.Error("nil tensor list should hold everything")
	}
}

func TestString(t *testing.T) {
	s := Simba().String()
	for _, want := range []string{"simba-like", "1024 MACs", "WBuf", "DRAM", "fanout=16"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
