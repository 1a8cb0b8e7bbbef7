package arch

import (
	"fmt"
	"strings"

	"sunstone/internal/energy"
)

// Tensor role names used by the convolution workloads and the Simba /
// DianNao per-datatype buffers. Generic tensor workloads (MTTKRP, TTMc, ...)
// run on architectures with unified buffers, where names do not matter.
const (
	Ifmap  = "ifmap"
	Weight = "weight"
	Ofmap  = "ofmap"
)

// Conventional returns the Eyeriss-like conventional accelerator of Table IV:
// a 32x32 grid of PEs with a single 16-bit MAC and a unified 512 B L1 each, a
// shared unified 3.1 MB L2, and DRAM. One level of spatial processing, with
// an interleaved multicast NoC and inter-PE ofmap (partial-sum) communication.
func Conventional() *Arch {
	const (
		bits    = 16
		l1Bytes = 512
		l2Bytes = 3_100 * 1024 // 3.1 MB
		pes     = 32 * 32
	)
	a := &Arch{
		Name:            "conventional",
		DefaultWordBits: bits,
		MACPJ:           energy.MAC(bits),
		Levels: []Level{
			{
				Name:   "L1",
				Fanout: 1,
				Buffers: []Buffer{{
					Name: "L1", Bytes: l1Bytes,
					ReadPJ: energy.SRAMRead(l1Bytes, bits), WritePJ: energy.SRAMWrite(l1Bytes, bits),
					ReadBW: 2, WriteBW: 2,
				}},
			},
			{
				Name:                  "L2",
				Fanout:                pes,
				AllowSpatialReduction: true,
				NoCPerWordPJ:          energy.NoCPerWord(bits, pes),
				NoCTagCheckPJ:         energy.NoCTagCheck(bits),
				SpatialReducePJ:       energy.SpatialReduce(bits),
				Buffers: []Buffer{{
					Name: "L2", Bytes: l2Bytes,
					ReadPJ: energy.SRAMRead(l2Bytes, bits), WritePJ: energy.SRAMWrite(l2Bytes, bits),
					ReadBW: 64, WriteBW: 64,
				}},
			},
			{
				Name:   "DRAM",
				Fanout: 1,
				Buffers: []Buffer{{
					Name:   "DRAM",
					ReadPJ: energy.DRAM(bits), WritePJ: energy.DRAM(bits),
					ReadBW: 8, WriteBW: 8,
				}},
			},
		},
	}
	mustValidate(a)
	return a
}

// Simba returns the Simba-like accelerator of Table IV: two levels of spatial
// processing (a 4x4 PE grid; 8 lanes of 8-wide vector MACs inside each PE),
// per-datatype PE buffers (32 KB weights, 8 KB ifmap, 3 KB ofmap), per-lane
// weight registers, a 512 KB global L2 holding only ifmap and ofmap (weights
// bypass L2 and stream from DRAM directly into the PE weight buffers), and
// mixed precision (8-bit weights/ifmap, 24-bit partial sums).
func Simba() *Arch {
	const (
		wBits, iBits, oBits = 8, 8, 24
		pes                 = 4 * 4
		lanes               = 8 * 8 // 8 vector MACs x vector width 8 per PE
		wBufBytes           = 32 * 1024
		iBufBytes           = 8 * 1024
		oBufBytes           = 3 * 1024
		l2Bytes             = 512 * 1024
	)
	a := &Arch{
		Name: "simba-like",
		WordBits: map[string]int{
			Weight: wBits, Ifmap: iBits, Ofmap: oBits,
		},
		DefaultWordBits: 8,
		MACPJ:           energy.MAC(8),
		Levels: []Level{
			{
				// Per-lane weight register: temporally reuses one weight
				// operand over several MACs (Fig. 1b of the paper).
				Name:   "Reg",
				Fanout: 1,
				Buffers: []Buffer{{
					Name: "WReg", Bytes: 2, Tensors: []string{Weight},
					ReadPJ: energy.Register(wBits), WritePJ: energy.Register(wBits),
				}},
			},
			{
				// PE-level distributed/broadcast buffers feeding 64 MAC
				// lanes; the vector-MAC adder tree permits spatial
				// reduction across lanes.
				Name:                  "PEBuf",
				Fanout:                lanes,
				AllowSpatialReduction: true,
				NoCPerWordPJ:          energy.NoCPerWord(8, lanes) / 4, // short intra-PE wires
				NoCTagCheckPJ:         0,                               // static intra-PE distribution
				SpatialReducePJ:       energy.SpatialReduce(oBits),
				Buffers: []Buffer{
					{
						Name: "WBuf", Bytes: wBufBytes, Tensors: []string{Weight},
						ReadPJ: energy.SRAMRead(wBufBytes, wBits), WritePJ: energy.SRAMWrite(wBufBytes, wBits),
						ReadBW: 64, WriteBW: 8,
					},
					{
						Name: "IBuf", Bytes: iBufBytes, Tensors: []string{Ifmap},
						ReadPJ: energy.SRAMRead(iBufBytes, iBits), WritePJ: energy.SRAMWrite(iBufBytes, iBits),
						ReadBW: 64, WriteBW: 8,
					},
					{
						Name: "OBuf", Bytes: oBufBytes, Tensors: []string{Ofmap},
						ReadPJ: energy.SRAMRead(oBufBytes, oBits), WritePJ: energy.SRAMWrite(oBufBytes, oBits),
						ReadBW: 64, WriteBW: 8,
					},
				},
			},
			{
				// Global buffer: ifmap and ofmap only; weights bypass.
				Name:                  "L2",
				Fanout:                pes,
				AllowSpatialReduction: true,
				NoCPerWordPJ:          energy.NoCPerWord(16, pes),
				NoCTagCheckPJ:         energy.NoCTagCheck(16),
				SpatialReducePJ:       energy.SpatialReduce(oBits),
				Buffers: []Buffer{{
					Name: "L2", Bytes: l2Bytes, Tensors: []string{Ifmap, Ofmap},
					ReadPJ: energy.SRAMRead(l2Bytes, 16), WritePJ: energy.SRAMWrite(l2Bytes, 16),
					ReadBW: 32, WriteBW: 32,
				}},
			},
			{
				Name:   "DRAM",
				Fanout: 1,
				Buffers: []Buffer{{
					Name:   "DRAM",
					ReadPJ: energy.DRAM(16), WritePJ: energy.DRAM(16),
					ReadBW: 8, WriteBW: 8,
				}},
			},
		},
	}
	mustValidate(a)
	return a
}

// DianNao returns the DianNao-like accelerator of Section V-D: per-datatype
// on-chip buffers (NBin for inputs, NBout for outputs, SB for weights)
// feeding an NFU of 16x16 multipliers with an adder tree (spatial reduction
// over input channels), and DRAM. Used by the tiling/unrolling overhead
// analysis together with the instruction-level simulator.
func DianNao() *Arch {
	const (
		bits       = 16
		nbinBytes  = 2 * 1024
		nboutBytes = 2 * 1024
		sbBytes    = 32 * 1024
		nfu        = 16 * 16 // Tn x Ti multipliers
	)
	a := &Arch{
		Name:            "diannao-like",
		DefaultWordBits: bits,
		MACPJ:           energy.MAC(bits),
		Levels: []Level{
			{
				Name:                  "OnChip",
				Fanout:                nfu,
				AllowSpatialReduction: true,
				NoCPerWordPJ:          energy.NoCPerWord(bits, nfu) / 4, // short datapath wiring
				SpatialReducePJ:       energy.SpatialReduce(bits),
				Buffers: []Buffer{
					{
						Name: "NBin", Bytes: nbinBytes, Tensors: []string{Ifmap},
						ReadPJ: energy.SRAMRead(nbinBytes, bits), WritePJ: energy.SRAMWrite(nbinBytes, bits),
						ReadBW: 32, WriteBW: 32,
					},
					{
						Name: "SB", Bytes: sbBytes, Tensors: []string{Weight},
						ReadPJ: energy.SRAMRead(sbBytes, bits), WritePJ: energy.SRAMWrite(sbBytes, bits),
						ReadBW: 256, WriteBW: 32,
					},
					{
						Name: "NBout", Bytes: nboutBytes, Tensors: []string{Ofmap},
						ReadPJ: energy.SRAMRead(nboutBytes, bits), WritePJ: energy.SRAMWrite(nboutBytes, bits),
						ReadBW: 32, WriteBW: 32,
					},
				},
			},
			{
				Name:   "DRAM",
				Fanout: 1,
				Buffers: []Buffer{{
					Name:   "DRAM",
					ReadPJ: energy.DRAM(bits), WritePJ: energy.DRAM(bits),
					ReadBW: 16, WriteBW: 16,
				}},
			},
		},
	}
	mustValidate(a)
	return a
}

// Tiny returns a small two-level teaching architecture: one unified L1 of the
// given capacity in 16-bit words above a single MAC, then DRAM. Used by the
// quickstart example and by unit tests that hand-check access counts against
// the paper's equations.
func Tiny(l1Words int) *Arch {
	const bits = 16
	l1Bytes := int64(l1Words) * bits / 8
	a := &Arch{
		Name:            "tiny",
		DefaultWordBits: bits,
		MACPJ:           energy.MAC(bits),
		Levels: []Level{
			{
				Name:   "L1",
				Fanout: 1,
				Buffers: []Buffer{{
					Name: "L1", Bytes: l1Bytes,
					ReadPJ: energy.SRAMRead(l1Bytes, bits), WritePJ: energy.SRAMWrite(l1Bytes, bits),
				}},
			},
			{
				Name:   "DRAM",
				Fanout: 1,
				Buffers: []Buffer{{
					Name:   "DRAM",
					ReadPJ: energy.DRAM(bits), WritePJ: energy.DRAM(bits),
					ReadBW: 8, WriteBW: 8,
				}},
			},
		},
	}
	mustValidate(a)
	return a
}

// TinySpatial returns Tiny plus a spatial level: pes parallel PEs (each with
// a unified L1 of l1Words) under a shared L2 of l2Words, then DRAM. Used by
// unit tests for the unrolling principle and multicast accounting.
func TinySpatial(l1Words, l2Words, pes int) *Arch {
	const bits = 16
	l1Bytes := int64(l1Words) * bits / 8
	l2Bytes := int64(l2Words) * bits / 8
	a := &Arch{
		Name:            "tiny-spatial",
		DefaultWordBits: bits,
		MACPJ:           energy.MAC(bits),
		Levels: []Level{
			{
				Name:   "L1",
				Fanout: 1,
				Buffers: []Buffer{{
					Name: "L1", Bytes: l1Bytes,
					ReadPJ: energy.SRAMRead(l1Bytes, bits), WritePJ: energy.SRAMWrite(l1Bytes, bits),
				}},
			},
			{
				Name:                  "L2",
				Fanout:                pes,
				AllowSpatialReduction: true,
				NoCPerWordPJ:          energy.NoCPerWord(bits, pes),
				NoCTagCheckPJ:         energy.NoCTagCheck(bits),
				SpatialReducePJ:       energy.SpatialReduce(bits),
				Buffers: []Buffer{{
					Name: "L2", Bytes: l2Bytes,
					ReadPJ: energy.SRAMRead(l2Bytes, bits), WritePJ: energy.SRAMWrite(l2Bytes, bits),
				}},
			},
			{
				Name:   "DRAM",
				Fanout: 1,
				Buffers: []Buffer{{
					Name:   "DRAM",
					ReadPJ: energy.DRAM(bits), WritePJ: energy.DRAM(bits),
					ReadBW: 8, WriteBW: 8,
				}},
			},
		},
	}
	mustValidate(a)
	return a
}

// Preset resolves an architecture preset by the name flags and job
// submissions use, case-insensitively: conventional (also ""), simba,
// diannao, or tiny (a 256-word L1).
func Preset(name string) (*Arch, error) {
	switch strings.ToLower(name) {
	case "", "conventional":
		return Conventional(), nil
	case "simba":
		return Simba(), nil
	case "diannao":
		return DianNao(), nil
	case "tiny":
		return Tiny(256), nil
	}
	return nil, fmt.Errorf("unknown arch preset %q (conventional|simba|diannao|tiny)", name)
}

func mustValidate(a *Arch) {
	if err := a.Validate(); err != nil {
		panic(err)
	}
}
