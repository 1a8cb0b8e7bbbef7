// Package cost implements the analytic cost model used to score every
// mapping in this repository — the substitute for the hardware-validated
// Timeloop model the paper evaluates with (see DESIGN.md).
//
// Like Timeloop, the model (1) counts, per storage level and tensor, the
// number of word accesses implied by the mapping's tiling, loop order and
// spatial unrolling; (2) multiplies each count by that component's per-access
// energy; and (3) assumes double buffering hides transfer latency, so delay
// is the maximum of compute time and any single level's transfer time.
//
// The access-count semantics follow the paper's algebra exactly — Equations
// (1)-(3) (temporal tiling) and (5)-(7) (spatial unrolling) of Section III
// are reproduced verbatim by this model and serve as unit tests:
//
//   - For tensor t held at level c with nearest keeper P above it, the data
//     read from P per full execution is passes x footprint(t, c), where
//     passes is the product of the temporal loop bounds at levels (c, P]
//     *excluding* the maximal innermost-contiguous run of loops over
//     t-non-indexing dimensions (Ordering Principles 1-2).
//   - Spatially unrolled dimensions enlarge the aggregate footprint only if
//     they index t; non-indexing spatial dimensions are multicast, costing
//     the parent a single read (the paper's Eqs. (5)-(7)).
//   - Output tensors additionally pay partial-sum writeback and readback
//     whenever a reduction loop sits above an output-indexing loop.
//   - Sliding-window (compound-axis) overlap is modeled when the innermost
//     reuse-breaking loop walks a window dimension: subsequent tiles fetch
//     only the new portion.
package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// Probe observes every evaluation before it runs. Stress tests install
// panicking or delaying probes to simulate poisoned cost models; the search
// stack's panic isolation must contain whatever a probe throws.
type Probe interface {
	BeforeEvaluate(m *mapping.Mapping)
}

// Model configures cost evaluation.
type Model struct {
	// NoSlidingReuse turns off the sliding-window overlap discount. The
	// discount is on in the zero Model (Timeloop models halo reuse too); the
	// paper's Eqs. (1)-(3) hold either way for their loop order.
	NoSlidingReuse bool
	// Probe, if set, is called at the start of every evaluation (fault
	// injection for robustness tests; nil in production).
	Probe Probe
	// Resident, when non-nil, marks tensors as resident at an on-chip
	// storage level for fused cross-layer execution: every keeper-pair flow
	// above a pin is cut from that tensor's chain, so no traffic, energy,
	// or bandwidth time is ever charged past the pinned buffer — the fused
	// group's intermediate is handed over in place instead of round-tripping
	// DRAM. Nil (the default) is the ordinary fully-DRAM-backed model.
	Resident *Residency
}

// Pin marks one tensor as resident at one storage level: the tensor's flow
// chain is truncated there, charging zero traffic above Level.
type Pin struct {
	// Tensor is the workload tensor name (e.g. "ofmap").
	Tensor string
	// Level is the storage level index the tensor stays resident at.
	Level int
}

// Residency configures cross-layer buffer residency for fused execution.
// The cost model only cuts the flows above each pin; reserving buffer
// capacity for the resident footprint is the fusion scheduler's job — it
// carves the reserved bytes out of the pinned buffer in a derived Arch
// before solving (see internal/core's fused network scheduler).
type Residency struct {
	Pins []Pin
}

// CanonicalPins returns the pins sorted by (Tensor, Level) — the
// deterministic order cache keys and serializers rely on. A nil receiver
// returns nil.
func (r *Residency) CanonicalPins() []Pin {
	if r == nil || len(r.Pins) == 0 {
		return nil
	}
	out := append([]Pin(nil), r.Pins...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tensor != out[j].Tensor {
			return out[i].Tensor < out[j].Tensor
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// residentKeepers truncates a tensor's keeper-level chain at its residency
// pin, if any: keeper levels above the pin are dropped, so no keeper-pair
// flow — and therefore no traffic, energy, or transfer time — is charged
// past the pinned buffer. The innermost keeper always survives (the datapath
// must be fed from somewhere), so a pin below it degrades to pinning at the
// innermost keeper. NewSession builds its flow plans from the truncated chain.
func (mo Model) residentKeepers(name string, keepers []int) []int {
	if mo.Resident == nil {
		return keepers
	}
	for _, p := range mo.Resident.Pins {
		if p.Tensor != name {
			continue
		}
		n := 0
		for _, l := range keepers {
			if l <= p.Level {
				n++
			}
		}
		if n < 1 {
			n = 1
		}
		keepers = keepers[:n]
	}
	return keepers
}

// Default is the model configuration used throughout the experiments: the
// zero Model.
var Default = Model{}

// Report is the result of evaluating one mapping.
type Report struct {
	Valid bool
	// Invalid holds the legality violation when Valid is false.
	Invalid error

	EnergyPJ float64
	Cycles   float64
	// EDP is EnergyPJ x Cycles.
	EDP float64

	// Breakdown maps component names (buffer names, "MAC", "NoC",
	// "SpatialReduce") to energy in pJ; it sums to EnergyPJ.
	Breakdown map[string]float64
	// Accesses maps "level/buffer/tensor" to {reads, writes} word counts.
	Accesses map[string]Access

	MACs int64
}

// Access is a read/write word-count pair.
type Access struct {
	Reads, Writes int64
}

// Flow describes the traffic between one tensor's adjacent keeper levels.
type Flow struct {
	Tensor        *tensor.Tensor
	Child, Parent int   // level indices; Child == -1 means the MAC datapath
	ParentReads   int64 // words read out of Parent (toward Child)
	ParentWrites  int64 // words written into Parent (from Child; outputs only)
	PsumReads     int64 // partial-sum readback words out of Parent
	ChildFills    int64 // words written into Child instances (inputs)
	ChildDrains   int64 // words read out of Child instances (outputs)
}

// Evaluate validates and scores a mapping with the default model.
func Evaluate(m *mapping.Mapping) Report { return Default.Evaluate(m) }

// Evaluate validates and scores a mapping. Invalid mappings get
// Valid=false and +Inf EDP but are still safe to compare. It compiles a
// throwaway Session; callers that already hold one use Evaluator.Report.
func (mo Model) Evaluate(m *mapping.Mapping) Report {
	return mo.NewSession(m.Workload, m.Arch).NewEvaluator().Report(m)
}

// EvaluateEDP is Evaluate's scalars without the Report, on a throwaway
// Session; hot callers (searches) hold one Session per (workload, arch) and
// one Evaluator per worker instead.
func (mo Model) EvaluateEDP(m *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool) {
	return mo.NewSession(m.Workload, m.Arch).NewEvaluator().EvaluateEDP(m)
}

// Flows computes the traffic of tensor t across every adjacent pair of its
// keeper levels, innermost pair first. The first flow has Child == -1: the
// MAC datapath consuming/producing one word per MAC below t's innermost
// keeper. Legality is not checked (an over-capacity tiling still has
// traffic), no Probe fires, and a mapping with a factor the model cannot
// represent (< 1, or > 1 on a dimension outside the workload) has no flows.
func (mo Model) Flows(m *mapping.Mapping, t *tensor.Tensor) []Flow {
	e := mo.NewSession(m.Workload, m.Arch).NewEvaluator()
	if !e.snapshot(m) {
		return nil
	}
	e.recordFlows = true
	e.extents()
	e.traffic()
	var flows []Flow
	for _, f := range e.flows {
		if f.Tensor.Name == t.Name {
			flows = append(flows, f)
		}
	}
	return flows
}

// windowOnly reports whether every axis of t that involves d is a compound
// (sliding-window) axis, so consecutive steps in d overlap in t.
func windowOnly(t *tensor.Tensor, d tensor.Dim) bool {
	found := false
	for _, a := range t.Axes {
		for _, term := range a {
			if term.D == d {
				if len(a) < 2 {
					return false
				}
				found = true
			}
		}
	}
	return found
}

// TotalAccesses sums reads+writes for report keys containing substr; handy
// for tests and experiment summaries.
func (r *Report) TotalAccesses(substr string) int64 {
	var n int64
	for k, acc := range r.Accesses {
		if strings.Contains(k, substr) {
			n += acc.Reads + acc.Writes
		}
	}
	return n
}

// BreakdownString renders the energy breakdown sorted by component name.
func (r *Report) BreakdownString() string {
	keys := make([]string, 0, len(r.Breakdown))
	for k := range r.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-14s %14.1f pJ\n", k, r.Breakdown[k])
	}
	return b.String()
}

var inf = math.Inf(1)

// AccessTable renders the per-level, per-tensor read/write word counts
// sorted by key — the raw quantities behind the energy breakdown (useful
// for comparing against the paper's access-count equations by hand).
func (r *Report) AccessTable() string {
	keys := make([]string, 0, len(r.Accesses))
	for k := range r.Accesses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "level/buffer/tensor", "reads", "writes")
	for _, k := range keys {
		acc := r.Accesses[k]
		fmt.Fprintf(&b, "%-28s %14d %14d\n", k, acc.Reads, acc.Writes)
	}
	return b.String()
}
