// Package arch describes spatial-accelerator architectures: a stack of
// storage levels from the registers next to the MACs up to off-chip DRAM,
// each with per-datatype or shared buffers, an optional spatial fanout (the
// number of parallel instances of the subtree below it), per-access energies,
// bandwidths, and NoC distribution costs.
//
// The model covers both "conventional" accelerators (one flat PE grid, Fig.
// 1a of the paper) and "modern" multi-level spatial designs such as Simba
// (vector MACs with operand registers inside each PE, Fig. 1b), including
// per-level bypass (e.g. Simba's weights skip the global L2 and stream from
// DRAM straight into the PE weight buffers).
package arch

import (
	"fmt"
	"strings"
)

// Buffer is one physical memory at a level. A level may contain several
// buffers, each dedicated to a subset of tensors (Simba's per-datatype PE
// buffers), or a single buffer shared by all tensors (conventional unified
// L1/L2).
type Buffer struct {
	Name string
	// Bytes is the capacity; 0 means unbounded (DRAM).
	Bytes int64
	// Tensors lists the tensor names stored here; nil means "all tensors
	// kept at this level".
	Tensors []string
	// ReadPJ / WritePJ are per-word access energies.
	ReadPJ, WritePJ float64
	// ReadBW / WriteBW are words per cycle; 0 means unconstrained.
	ReadBW, WriteBW float64
}

// Holds reports whether the buffer stores tensor name.
func (b *Buffer) Holds(name string) bool {
	if b.Tensors == nil {
		return true
	}
	for _, t := range b.Tensors {
		if t == name {
			return true
		}
	}
	return false
}

// Level is one storage level of the hierarchy plus the spatial fan-out of the
// subtree below it.
type Level struct {
	Name    string
	Buffers []Buffer
	// Fanout is the number of parallel instances of the level below this
	// one (1 = purely temporal level). The innermost level's fanout counts
	// MAC datapaths per instance.
	Fanout int
	// AllowSpatialReduction reports whether partial sums may be combined
	// across this level's children (adder tree / inter-PE accumulation).
	AllowSpatialReduction bool
	// NoCPerWordPJ is the energy to move one word from this level to one of
	// its children; NoCTagCheckPJ is paid once per *receiving* child per
	// word (Eyeriss-style multicast destination-tag check);
	// SpatialReducePJ is paid per word combined across children.
	NoCPerWordPJ, NoCTagCheckPJ, SpatialReducePJ float64
}

// Keeps reports whether tensor name is stored at this level.
func (l *Level) Keeps(name string) bool {
	for i := range l.Buffers {
		if l.Buffers[i].Holds(name) {
			return true
		}
	}
	return false
}

// BufferFor returns the buffer holding tensor name, or nil.
func (l *Level) BufferFor(name string) *Buffer {
	for i := range l.Buffers {
		if l.Buffers[i].Holds(name) {
			return &l.Buffers[i]
		}
	}
	return nil
}

// Arch is a complete accelerator description.
type Arch struct {
	Name string
	// Levels is ordered innermost (closest to the MACs) first; the last
	// level must be an unbounded DRAM keeping every tensor.
	Levels []Level
	// WordBits gives per-tensor word widths; DefaultWordBits applies to
	// tensors not listed.
	WordBits        map[string]int
	DefaultWordBits int
	// MACPJ is the energy of one MAC operation.
	MACPJ float64
}

// Bits returns the word width used for tensor name.
func (a *Arch) Bits(name string) int {
	if b, ok := a.WordBits[name]; ok {
		return b
	}
	if a.DefaultWordBits > 0 {
		return a.DefaultWordBits
	}
	return 16
}

// NumMemLevels returns the number of storage levels.
func (a *Arch) NumMemLevels() int { return len(a.Levels) }

// TotalMACs returns the total number of MAC datapaths: the product of all
// level fanouts.
func (a *Arch) TotalMACs() int {
	p := 1
	for i := range a.Levels {
		p *= a.Levels[i].Fanout
	}
	return p
}

// ParentOf returns the index of the nearest level above lvl that keeps
// tensor name — the level the data is fetched from. Returns -1 if none
// (cannot happen for a validated arch unless lvl is the top).
func (a *Arch) ParentOf(name string, lvl int) int {
	for i := lvl + 1; i < len(a.Levels); i++ {
		if a.Levels[i].Keeps(name) {
			return i
		}
	}
	return -1
}

// KeeperBelow returns the index of the nearest level at or below lvl that
// keeps tensor name, or -1.
func (a *Arch) KeeperBelow(name string, lvl int) int {
	for i := lvl; i >= 0; i-- {
		if a.Levels[i].Keeps(name) {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: at least two levels, a top level
// that is unbounded and keeps everything, positive fanouts, buffers with
// non-negative capacities, and names that key a cost report unambiguously —
// cost.Report.Accesses is keyed "level/buffer/tensor", so level names are
// unique and neither level nor buffer names contain '/'.
func (a *Arch) Validate() error {
	if len(a.Levels) < 2 {
		return fmt.Errorf("arch %q: need at least two levels (got %d)", a.Name, len(a.Levels))
	}
	top := a.Levels[len(a.Levels)-1]
	for i := range top.Buffers {
		if top.Buffers[i].Bytes != 0 {
			return fmt.Errorf("arch %q: top level %q must be unbounded", a.Name, top.Name)
		}
		if top.Buffers[i].Tensors != nil {
			return fmt.Errorf("arch %q: top level %q must keep all tensors", a.Name, top.Name)
		}
	}
	if len(top.Buffers) == 0 {
		return fmt.Errorf("arch %q: top level %q has no buffers", a.Name, top.Name)
	}
	for i := range a.Levels {
		l := &a.Levels[i]
		if l.Fanout < 1 {
			return fmt.Errorf("arch %q: level %q has fanout %d", a.Name, l.Name, l.Fanout)
		}
		if len(l.Buffers) == 0 {
			return fmt.Errorf("arch %q: level %q has no buffers", a.Name, l.Name)
		}
		if strings.Contains(l.Name, "/") {
			return fmt.Errorf("arch %q: level name %q contains '/'", a.Name, l.Name)
		}
		for j := 0; j < i; j++ {
			if a.Levels[j].Name == l.Name {
				return fmt.Errorf("arch %q: levels %d and %d are both named %q", a.Name, j, i, l.Name)
			}
		}
		for j := range l.Buffers {
			if l.Buffers[j].Bytes < 0 {
				return fmt.Errorf("arch %q: buffer %q has negative capacity", a.Name, l.Buffers[j].Name)
			}
			if strings.Contains(l.Buffers[j].Name, "/") {
				return fmt.Errorf("arch %q: buffer name %q contains '/'", a.Name, l.Buffers[j].Name)
			}
		}
	}
	if a.MACPJ <= 0 {
		return fmt.Errorf("arch %q: non-positive MAC energy", a.Name)
	}
	return nil
}

// String renders a short summary of the hierarchy.
func (a *Arch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d MACs):", a.Name, a.TotalMACs())
	for i := range a.Levels {
		l := &a.Levels[i]
		fmt.Fprintf(&b, "\n  [%d] %s fanout=%d", i, l.Name, l.Fanout)
		for j := range l.Buffers {
			buf := &l.Buffers[j]
			cap := "inf"
			if buf.Bytes > 0 {
				cap = fmt.Sprintf("%dB", buf.Bytes)
			}
			fmt.Fprintf(&b, " %s(%s)", buf.Name, cap)
		}
	}
	return b.String()
}
