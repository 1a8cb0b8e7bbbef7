// Package sunstone is a Go implementation of Sunstone, a scalable and
// versatile dataflow scheduler for mapping tensor algebra onto spatial
// accelerators (Olyaiy, Ng, Fedorova, Lis — ISPASS 2023).
//
// Given a tensor-algebra workload (convolution, MTTKRP, TTMc, SDDMM, MMc,
// TCL, or anything expressible as a freely-reorderable nested loop over
// dense index expressions) and an accelerator description (multi-level
// memories, per-datatype buffers, multi-level spatial fanout), Solve
// returns the tiling / loop-ordering / spatial-unrolling mapping with the
// best energy-delay product under a Timeloop-style analytic cost model.
//
// The search applies the paper's algebra-derived pruning principles: an
// ordering trie keyed on which tensors each loop can reuse, a tiling tree
// grown only along the reused operand's indexing dimensions, and spatial
// unrolling restricted away from dimensions that would re-reuse an
// already-optimized operand. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduced evaluation.
//
// Quick start:
//
//	w := sunstone.Conv2D("layer", 16, 64, 64, 56, 56, 3, 3, 1, 1)
//	p := sunstone.Problem{Workload: w, Arch: sunstone.Simba()}
//	res, err := sunstone.Solve(ctx, p, sunstone.Options{})
//	fmt.Println(res.Mapping, res.Report.EDP)
//
// # One way in
//
// Problem bundles everything that identifies one scheduling problem —
// workload, architecture, and (optionally) a non-default cost model — and
// Options everything about how to search it. There are three entry points:
//
//	Solve(ctx, Problem, Options)                  one search on a transient Engine
//	(*Engine).Solve(ctx, Problem, Options)        the same, over the Engine's compile cache
//	(*Engine).ScheduleNetworkFused(ctx, …)        one Solve per layer of a network IR, then
//	                                              fusion-aware cuts (MaxGroup 1: none)
//
// Retrying is an option, not another function: Options.Retry hardens any of
// the three with bounded retries, the innermost-fit fallback and a final
// audit.
//
// # Anytime optimization: cancellation, deadlines, graceful degradation
//
// Solve is an *anytime* algorithm. It polls cancellation at bounded
// intervals; when the context is canceled, its deadline expires, or
// Options.Timeout runs out, the search stops within one polling interval —
// in practice well under 100ms — and returns the best mapping completed so
// far, with Result.Stopped recording why it returned:
//
//   - StopComplete — the search ran to its natural end;
//   - StopDeadline — Options.Timeout or the context deadline expired;
//   - StopCanceled — the caller canceled the context;
//   - StopBudget — an internal enumeration budget was exhausted.
//
// A stopped search returns a nil error as long as at least one valid
// mapping was completed before the signal: the incumbent is seeded with the
// trivial everything-at-DRAM completion before level-by-level optimization
// begins, so in practice only a stop during workload/arch validation comes
// back empty. Best-so-far mappings are complete, structurally valid, and
// pass VerifyMapping — only their cost is worse than what a full search
// would have found.
//
// Panic isolation: every parallel evaluation worker (the core fan-out, each
// baseline mapper's search threads, and each member of ScheduleNetworkFused)
// converts a panicking cost-model evaluation into a per-candidate error
// carrying the offending mapping serialized for reproduction (see
// Result.CandidateErrors), so one poisoned candidate degrades a single
// evaluation instead of killing the process. ScheduleNetworkFused extends
// the same contract across layers: fail-fast sibling cancellation by
// default, or FusionOptions.ContinueOnError to run every layer to its own
// conclusion; either way the per-layer errors come back joined
// (errors.Join) together with the layers that succeeded. The baseline
// mappers (Engine.Baselines) implement the same deadline contract via
// BaselineMapper.MapContext, so head-to-head time-bounded comparisons are
// fair. See DESIGN.md ("Anytime search") for the full taxonomy.
package sunstone

import (
	"context"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/registry"
	"sunstone/internal/core"
	"sunstone/internal/cost"
	"sunstone/internal/exec"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// Core types, re-exported from the implementation packages.
type (
	// Dim names a problem dimension (a loop variable).
	Dim = tensor.Dim
	// Axis is one tensor axis's index expression (possibly a sliding
	// window such as p+r).
	Axis = tensor.Axis
	// Tensor is one operand or result of a workload.
	Tensor = tensor.Tensor
	// Workload is a tensor-algebra problem description.
	Workload = tensor.Workload
	// Arch describes a spatial accelerator.
	Arch = arch.Arch
	// Level is one storage level of an Arch.
	Level = arch.Level
	// Buffer is one physical memory within a Level.
	Buffer = arch.Buffer
	// Mapping is a complete dataflow mapping.
	Mapping = mapping.Mapping
	// Report is a cost-model evaluation of a mapping.
	Report = cost.Report
	// Options configures the optimizer.
	Options = core.Options
	// Problem bundles a workload, an architecture, and an optional
	// non-default cost model into one value identifying a scheduling
	// problem — the canonical input of Solve and Engine.Solve.
	Problem = core.Problem
	// Result is the outcome of an optimization run.
	Result = core.Result
	// BaselineResult is the outcome of a prior-art mapper run.
	BaselineResult = baselines.Result
	// BaselineMapper is a prior-art mapper under comparison.
	BaselineMapper = baselines.Mapper
	// NamedBaseline pairs a baseline's catalog name (lowercase,
	// flag-friendly — what cmd/sunstone -baselines accepts) with a fresh
	// mapper; Engine.Baselines returns the catalog.
	NamedBaseline = registry.Entry
	// ConvShape describes one convolution layer's geometry.
	ConvShape = workloads.ConvShape
)

// Objective is the figure of merit the search minimizes.
type Objective = core.Objective

// StopReason records why a search returned (see the package comment's
// anytime-optimization section).
type StopReason = anytime.StopReason

// Stop reasons for Result.Stopped and BaselineResult.Stopped.
const (
	StopComplete = core.StopComplete
	StopDeadline = core.StopDeadline
	StopCanceled = core.StopCanceled
	StopBudget   = core.StopBudget
)

// PanicError is a panic recovered from a search worker and converted into a
// per-candidate error, carrying the offending mapping serialized for repro.
type PanicError = anytime.PanicError

// Optimization objectives: the paper's EDP plus energy / delay / ED^2P
// extensions.
const (
	MinEDP    = core.MinEDP
	MinEnergy = core.MinEnergy
	MinDelay  = core.MinDelay
	MinED2P   = core.MinED2P
)

// NewWorkload builds a workload from a dimension table and tensors; see
// A and Win for index expressions.
func NewWorkload(name string, dims map[Dim]int, tensors ...*Tensor) (*Workload, error) {
	return tensor.New(name, dims, tensors...)
}

// ParseWorkload reads the paper's Section IV textual description syntax:
//
//	dimensions = {K:4, C:4, P:7, R:3}
//	tensor_description = {
//	    operand1 = [C, (P, R)],
//	    operand2 = [K, C, R],
//	    output = [K, P]
//	}
func ParseWorkload(src string) (*Workload, error) { return tensor.Parse(src) }

// A returns a simple single-dimension axis.
func A(d Dim) Axis { return tensor.A(d) }

// Win returns a two-dimension sliding-window axis (e.g. Win("P",1,"R",1)
// for the convolution input expression p+r).
func Win(d1 Dim, s1 int, d2 Dim, s2 int) Axis { return tensor.Win(d1, s1, d2, s2) }

// Workload constructors for the Table II kernel classes.
var (
	Conv1D             = workloads.Conv1D
	Conv2D             = workloads.Conv2D
	Conv2DWeightUpdate = workloads.Conv2DWeightUpdate
	FC                 = workloads.FC
	MTTKRP             = workloads.MTTKRP
	SDDMM              = workloads.SDDMM
	TTMc               = workloads.TTMc
	MMc                = workloads.MMc
	TCL                = workloads.TCL
	ResNet18Layers     = workloads.ResNet18
	InceptionV3Layers  = workloads.InceptionV3
	AlexNetLayers      = workloads.AlexNet
	VGG16Layers        = workloads.VGG16
)

// Architecture presets (Table IV and Section V-D).
var (
	Conventional = arch.Conventional
	Simba        = arch.Simba
	DianNao      = arch.DianNao
	Tiny         = arch.Tiny
	TinySpatial  = arch.TinySpatial
)

// DefaultOptions returns the optimizer's default configuration with every
// field spelled out. The zero Options value is exactly equivalent — zero
// fields are filled from this set before any search runs — so use whichever
// reads better: Options{} for "just the defaults", DefaultOptions() to start
// from the defaults and adjust one knob.
func DefaultOptions() Options { return core.DefaultOptions() }

// SearchStats is the telemetry-counter snapshot published in Result.Stats:
// candidate flow (generated, pruned by each algebraic principle, deduped,
// evaluated, skipped), post-evaluation alpha-beta/beam cuts, and the
// fast-path evaluator's memo-cache hits and misses. For a run that was not
// canceled, Generated == Pruned() + Deduped + Evaluated.
type SearchStats = core.SearchStats

// Progress streaming types for Options.Progress (see internal/obs).
type (
	// ProgressEvent is one live search notification: a phase boundary or an
	// incumbent improvement, with the current best score and counter
	// snapshot attached.
	ProgressEvent = obs.ProgressEvent
	// ProgressKind classifies a ProgressEvent.
	ProgressKind = obs.ProgressKind
	// ProgressFunc is the Options.Progress callback type. Callbacks run
	// synchronously on the search goroutine: keep them fast, and do not
	// call back into the search.
	ProgressFunc = obs.ProgressFunc
)

// Progress event kinds.
const (
	PhaseStarted      = obs.PhaseStarted
	PhaseFinished     = obs.PhaseFinished
	IncumbentImproved = obs.IncumbentImproved
)

// Trace collects hierarchical timed spans of a search for export in the
// Chrome trace-event JSON format (chrome://tracing, ui.perfetto.dev).
// Install one on a context with WithTrace, run any entry point under it
// (Solve, ScheduleNetworkFused, BaselineMapper.MapContext), then render it with
// its WriteJSON method.
type Trace = obs.Trace

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace returns a context carrying t; every search phase run under that
// context records a span into t. Without a trace on the context, the
// telemetry instrumentation is inert (two context lookups per phase).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return obs.WithTrace(ctx, t)
}

// Solve runs the Sunstone optimizer on a Problem under ctx as an anytime
// algorithm: on cancellation or deadline it returns the best mapping
// completed so far with Result.Stopped set (see the package comment). It is
// (*Engine).Solve on a transient Engine; hold an Engine to reuse compiled
// artifacts across calls.
func Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	return core.Solve(ctx, p, opt)
}

// Evaluate scores an arbitrary mapping with the default cost model.
func Evaluate(m *Mapping) Report { return cost.Evaluate(m) }

// CostSession holds the precomputed per-(workload, arch) tables and the
// search-wide memoization cache of the scalar fast-path cost evaluator.
// Solve builds one internally per problem; build one yourself (NewCostSession)
// to score many mappings of the same workload on the same architecture
// without Report allocation overhead.
type CostSession = cost.Session

// CostEvaluator is a single goroutine's scratch-carrying handle onto a
// CostSession. Evaluators are cheap; create one per worker.
type CostEvaluator = cost.Evaluator

// NewCostSession builds a fast-path evaluation session for w on a using the
// default cost model.
func NewCostSession(w *Workload, a *Arch) *CostSession {
	return cost.Default.NewSession(w, a)
}

// EvaluateEDP scores m on the scalar fast path: bit-identical EDP, energy
// (pJ), cycles and validity to Evaluate, without building a Report. For
// repeated scoring, hold a CostSession and reuse its evaluators instead.
func EvaluateEDP(m *Mapping) (edp, energyPJ, cycles float64, valid bool) {
	return cost.Default.EvaluateEDP(m)
}

// NewMapping returns an empty mapping of w onto a, for hand construction.
func NewMapping(w *Workload, a *Arch) *Mapping { return mapping.New(w, a) }

// ExplainOrderings returns the pruned ordering-trie candidates for w with
// their reuse annotations (the paper's Fig. 4 view) — why the search
// considers exactly these loop orders.
func ExplainOrderings(w *Workload) string {
	os, _ := order.Enumerate(w)
	return order.Render(os)
}

// VerifyMapping functionally executes m's full loop nest on deterministic
// data and checks the result against the untransformed reference execution.
// Use it to confirm that a hand-written or imported mapping computes the
// right answer, not just that it is structurally legal.
func VerifyMapping(m *Mapping) (bool, error) { return exec.Verify(m) }
