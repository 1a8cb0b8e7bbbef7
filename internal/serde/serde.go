// Package serde serializes workloads, architectures, mappings and cost
// reports to and from JSON — the configuration-file workflow of mappers like
// Timeloop (which consumes YAML problem/arch/mapping descriptions), built on
// the standard library. Loading validates everything, so a hand-written file
// with an impossible architecture or an illegal mapping is rejected with a
// precise error.
package serde

import (
	"encoding/json"
	"fmt"

	"sunstone/internal/arch"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// WorkloadJSON is the serialized form of a tensor.Workload.
type WorkloadJSON struct {
	Name    string         `json:"name"`
	Dims    map[string]int `json:"dims"`
	Tensors []TensorJSON   `json:"tensors"`
}

// TensorJSON is one operand; each axis is a list of strided terms (a
// one-term axis is a plain subscript, multi-term is a sliding window).
type TensorJSON struct {
	Name   string       `json:"name"`
	Axes   [][]TermJSON `json:"axes"`
	Output bool         `json:"output,omitempty"`
}

// TermJSON is one summand of an axis expression: stride*dim.
type TermJSON struct {
	Dim    string `json:"dim"`
	Stride int    `json:"stride"`
}

// EncodeWorkload renders w as indented JSON.
func EncodeWorkload(w *tensor.Workload) ([]byte, error) {
	out := WorkloadJSON{Name: w.Name, Dims: map[string]int{}}
	for d, n := range w.Dims {
		out.Dims[string(d)] = n
	}
	for _, t := range w.Tensors {
		tj := TensorJSON{Name: t.Name, Output: t.Output}
		for _, a := range t.Axes {
			var axis []TermJSON
			for _, term := range a {
				axis = append(axis, TermJSON{Dim: string(term.D), Stride: term.Stride})
			}
			tj.Axes = append(tj.Axes, axis)
		}
		out.Tensors = append(out.Tensors, tj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeWorkload parses and validates a workload description.
func DecodeWorkload(data []byte) (*tensor.Workload, error) {
	var in WorkloadJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("workload JSON: %w", err)
	}
	dims := make(map[tensor.Dim]int, len(in.Dims))
	for d, n := range in.Dims {
		dims[tensor.Dim(d)] = n
	}
	var tensors []*tensor.Tensor
	for _, tj := range in.Tensors {
		t := &tensor.Tensor{Name: tj.Name, Output: tj.Output}
		for _, axis := range tj.Axes {
			var a tensor.Axis
			for _, term := range axis {
				a = append(a, tensor.Term{D: tensor.Dim(term.Dim), Stride: term.Stride})
			}
			t.Axes = append(t.Axes, a)
		}
		tensors = append(tensors, t)
	}
	return tensor.New(in.Name, dims, tensors...)
}

// ArchJSON is the serialized form of an arch.Arch.
type ArchJSON struct {
	Name            string         `json:"name"`
	WordBits        map[string]int `json:"word_bits,omitempty"`
	DefaultWordBits int            `json:"default_word_bits,omitempty"`
	MACPJ           float64        `json:"mac_pj"`
	Levels          []LevelJSON    `json:"levels"`
}

// LevelJSON is one storage level.
type LevelJSON struct {
	Name                  string       `json:"name"`
	Fanout                int          `json:"fanout,omitempty"`
	AllowSpatialReduction bool         `json:"allow_spatial_reduction,omitempty"`
	NoCPerWordPJ          float64      `json:"noc_per_word_pj,omitempty"`
	NoCTagCheckPJ         float64      `json:"noc_tag_check_pj,omitempty"`
	SpatialReducePJ       float64      `json:"spatial_reduce_pj,omitempty"`
	Buffers               []BufferJSON `json:"buffers"`
}

// BufferJSON is one physical memory.
type BufferJSON struct {
	Name    string   `json:"name"`
	Bytes   int64    `json:"bytes,omitempty"` // 0 = unbounded (DRAM)
	Tensors []string `json:"tensors,omitempty"`
	ReadPJ  float64  `json:"read_pj"`
	WritePJ float64  `json:"write_pj"`
	ReadBW  float64  `json:"read_bw,omitempty"`
	WriteBW float64  `json:"write_bw,omitempty"`
}

// EncodeArch renders a as indented JSON.
func EncodeArch(a *arch.Arch) ([]byte, error) {
	out := ArchJSON{
		Name: a.Name, WordBits: a.WordBits,
		DefaultWordBits: a.DefaultWordBits, MACPJ: a.MACPJ,
	}
	for i := range a.Levels {
		l := &a.Levels[i]
		lj := LevelJSON{
			Name: l.Name, Fanout: l.Fanout,
			AllowSpatialReduction: l.AllowSpatialReduction,
			NoCPerWordPJ:          l.NoCPerWordPJ,
			NoCTagCheckPJ:         l.NoCTagCheckPJ,
			SpatialReducePJ:       l.SpatialReducePJ,
		}
		for j := range l.Buffers {
			b := &l.Buffers[j]
			lj.Buffers = append(lj.Buffers, BufferJSON{
				Name: b.Name, Bytes: b.Bytes, Tensors: b.Tensors,
				ReadPJ: b.ReadPJ, WritePJ: b.WritePJ,
				ReadBW: b.ReadBW, WriteBW: b.WriteBW,
			})
		}
		out.Levels = append(out.Levels, lj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeArch parses and validates an architecture description.
func DecodeArch(data []byte) (*arch.Arch, error) {
	var in ArchJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("arch JSON: %w", err)
	}
	a := &arch.Arch{
		Name: in.Name, WordBits: in.WordBits,
		DefaultWordBits: in.DefaultWordBits, MACPJ: in.MACPJ,
	}
	for _, lj := range in.Levels {
		fanout := lj.Fanout
		if fanout == 0 {
			fanout = 1
		}
		l := arch.Level{
			Name: lj.Name, Fanout: fanout,
			AllowSpatialReduction: lj.AllowSpatialReduction,
			NoCPerWordPJ:          lj.NoCPerWordPJ,
			NoCTagCheckPJ:         lj.NoCTagCheckPJ,
			SpatialReducePJ:       lj.SpatialReducePJ,
		}
		for _, bj := range lj.Buffers {
			l.Buffers = append(l.Buffers, arch.Buffer{
				Name: bj.Name, Bytes: bj.Bytes, Tensors: bj.Tensors,
				ReadPJ: bj.ReadPJ, WritePJ: bj.WritePJ,
				ReadBW: bj.ReadBW, WriteBW: bj.WriteBW,
			})
		}
		a.Levels = append(a.Levels, l)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// FormatV1 is the current mapping-file format identifier. Encoders always
// stamp it; decoders accept it, or no stamp at all (pre-versioning files are
// treated as v1 — deprecated, kept so existing files keep loading), and
// reject anything else.
const FormatV1 = "sunstone/v1"

// MappingJSON is the serialized form of a mapping's level assignments.
type MappingJSON struct {
	// Format identifies the file-format revision ("sunstone/v1").
	// Deprecated: omitting it is still accepted and read as v1, but new
	// files should always carry the stamp.
	Format   string             `json:"format,omitempty"`
	Workload string             `json:"workload"`
	Arch     string             `json:"arch"`
	Levels   []MappingLevelJSON `json:"levels"` // innermost first
}

// MappingLevelJSON is one level's loops.
type MappingLevelJSON struct {
	Level    string         `json:"level"`
	Temporal map[string]int `json:"temporal,omitempty"`
	Order    []string       `json:"order,omitempty"` // innermost first
	Spatial  map[string]int `json:"spatial,omitempty"`
}

// EncodeMapping renders m's assignments as indented JSON.
func EncodeMapping(m *mapping.Mapping) ([]byte, error) {
	out := MappingJSON{Format: FormatV1, Workload: m.Workload.Name, Arch: m.Arch.Name}
	for lvl := range m.Levels {
		lm := &m.Levels[lvl]
		mlj := MappingLevelJSON{Level: m.Arch.Levels[lvl].Name}
		for d, f := range lm.Temporal {
			if f > 1 {
				if mlj.Temporal == nil {
					mlj.Temporal = map[string]int{}
				}
				mlj.Temporal[string(d)] = f
			}
		}
		for d, f := range lm.Spatial {
			if f > 1 {
				if mlj.Spatial == nil {
					mlj.Spatial = map[string]int{}
				}
				mlj.Spatial[string(d)] = f
			}
		}
		for _, d := range lm.Order {
			mlj.Order = append(mlj.Order, string(d))
		}
		out.Levels = append(out.Levels, mlj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeMapping parses level assignments and binds them to w and a,
// validating the result. The file's level count must match the
// architecture's.
func DecodeMapping(data []byte, w *tensor.Workload, a *arch.Arch) (*mapping.Mapping, error) {
	var in MappingJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("mapping JSON: %w", err)
	}
	switch in.Format {
	case FormatV1:
	case "": // pre-versioning file; read as v1 (deprecated)
	default:
		return nil, fmt.Errorf("mapping JSON: unknown format %q (this build reads %q)",
			in.Format, FormatV1)
	}
	if len(in.Levels) != len(a.Levels) {
		return nil, fmt.Errorf("mapping has %d levels, architecture %q has %d",
			len(in.Levels), a.Name, len(a.Levels))
	}
	m := mapping.New(w, a)
	// Every loop must name a workload dimension with a positive bound;
	// unknown dims would silently corrupt extent and coverage accounting.
	checkDim := func(lvl int, d string, f int, kind string) error {
		if _, ok := w.Dims[tensor.Dim(d)]; !ok {
			return fmt.Errorf("level %s: %s loop over %q: workload %q has no such dimension",
				a.Levels[lvl].Name, kind, d, w.Name)
		}
		if f < 1 {
			return fmt.Errorf("level %s: %s loop over %s has bound %d, must be >= 1",
				a.Levels[lvl].Name, kind, d, f)
		}
		return nil
	}
	for lvl, mlj := range in.Levels {
		for d, f := range mlj.Temporal {
			if err := checkDim(lvl, d, f, "temporal"); err != nil {
				return nil, err
			}
			m.Levels[lvl].Temporal[tensor.Dim(d)] = f
		}
		for d, f := range mlj.Spatial {
			if err := checkDim(lvl, d, f, "spatial"); err != nil {
				return nil, err
			}
			m.Levels[lvl].Spatial[tensor.Dim(d)] = f
		}
		for _, d := range mlj.Order {
			if _, ok := w.Dims[tensor.Dim(d)]; !ok {
				return nil, fmt.Errorf("level %s: loop order names %q: workload %q has no such dimension",
					a.Levels[lvl].Name, d, w.Name)
			}
			m.Levels[lvl].Order = append(m.Levels[lvl].Order, tensor.Dim(d))
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("decoded mapping is illegal: %w", err)
	}
	return m, nil
}
