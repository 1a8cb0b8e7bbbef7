package sunstone

import (
	"context"

	"sunstone/internal/core"
	"sunstone/internal/network"
	"sunstone/internal/workloads"
)

// Fusion IR surface (internal/network): the typed Network of Layer nodes
// with explicit producer→consumer tensor Edges that the network scheduler
// consumes.
type (
	// Network is an ordered chain of layers with the edges along which
	// fusion is legal.
	Network = network.Network
	// Layer is one node of a Network: a workload plus its consecutive
	// occurrence count.
	Layer = network.Layer
	// Edge is one producer→consumer tensor handoff between chain neighbors.
	Edge = network.Edge
	// Position is one executed layer occurrence in chain order.
	Position = network.Position
	// FusionOptions configures the network scheduler on top of the
	// per-member search Options: the fused group bound and the error policy.
	FusionOptions = core.FusionOptions
)

// IR constructors.
var (
	// TransformerChain is the MHA-flavored GEMM→GEMM chain preset: the four
	// back-to-back projections of one transformer block, fully fusible.
	TransformerChain = network.TransformerChain
)

// FromConvShapes builds the conv-chain IR of a layer-shape table (one of the
// *Layers presets, say) at the given batch; repeats weights shapes that occur
// several times in a row (e.g. the four conv2_x blocks of ResNet-18), nil
// meaning once each. See internal/network for the edge-construction rules
// (channel chaining plus the pooling-geometry cut). A shape with a
// non-positive extent or stride is an error naming the layer.
func FromConvShapes(name string, shapes []ConvShape, batch int, repeats []int) (*Network, error) {
	return network.FromConvShapes(name, shapes, batch, repeats)
}

// A network schedule has one shape, internal/core's: Layers holds one entry
// per executed chain position (repeats expanded), Groups the chosen fusion
// cut over those positions — group g's members are Layers[g.Start:g.End].
type (
	// NetworkSchedule aggregates a whole network's mapping results.
	NetworkSchedule = core.NetworkResult
	// LayerSchedule is one chain position's outcome within a NetworkSchedule.
	LayerSchedule = core.LayerResult
	// GroupSchedule is one fused segment of a NetworkSchedule; singleton
	// groups (End-Start == 1) are unfused layer occurrences with PinLevel -1.
	GroupSchedule = core.GroupResult
	// NetworkOptions is the Options every member Solve of a network schedule
	// runs under (Retry included); the name stays for ScheduleNetworkFused's
	// signature. The network-level error policy is
	// FusionOptions.ContinueOnError.
	NetworkOptions = Options
)

// FailureCause classifies why a layer's search failed (LayerError.Cause).
// The taxonomy lives in internal/core so the network scheduler and the
// scheduler service (internal/server) share one classifier.
type FailureCause = core.FailureCause

const (
	// CauseInjected: a deterministic chaos fault (internal/faults) was the
	// root cause, directly or inside a contained panic.
	CauseInjected = core.CauseInjected
	// CausePanic: a contained panic (poisoned cost model, broken callback)
	// not attributable to an injected fault.
	CausePanic = core.CausePanic
	// CauseDeadline: a wall-clock deadline expired before any valid mapping
	// was completed.
	CauseDeadline = core.CauseDeadline
	// CauseSiblingCancel: the layer was canceled by the fail-fast policy
	// after a sibling layer failed first.
	CauseSiblingCancel = core.CauseSiblingCancel
	// CauseSearch: an ordinary search failure (invalid inputs, no feasible
	// candidates, exhausted resilient attempts).
	CauseSearch = core.CauseSearch
	// CauseWatchdog: the scheduler service's per-job watchdog canceled a
	// search that stopped reporting progress.
	CauseWatchdog = core.CauseWatchdog
)

// LayerError is a per-layer scheduling failure with its classified cause.
// Error renders as "<layer>: [<cause>] <err>" so logs keep the layer prefix
// older tooling greps for; Unwrap exposes the underlying failure for
// errors.Is/As.
type LayerError = core.LayerError

// CauseOf extracts the classified failure cause from an error chain:
// LayerError's recorded cause when present, otherwise a direct
// classification of err itself. A nil error has no cause ("").
func CauseOf(err error) FailureCause { return core.CauseOf(err) }

// ScheduleNetworkFused is the network scheduler (internal/core's
// SolveNetworkFused) over the Engine's compilation cache: every distinct
// layer is mapped once, concurrently, by an independent Solve (repeated
// shapes compile once; an already-warm Engine recompiles nothing); then
// contiguous chain segments connected by IR edges may execute as one group
// whose intermediate tensors stay resident on-chip instead of round-tripping
// DRAM, and an exact DP over the cut space picks the grouping with the
// lowest total EDP. The all-singleton cut is always a candidate, so the
// schedule never scores worse than the unfused one (returned alongside in
// UnfusedEDP) — and FusionOptions{MaxGroup: 1} is exactly that cut, the
// plain per-layer schedule.
//
// The searches inherit ctx (plus Options.Timeout, which bounds each one
// individually), so canceling ctx degrades every in-flight layer to its
// best-so-far mapping. opt.Retry covers every member search, singleton and
// fused, recording attempts in its Result.Attempts / Result.FallbackUsed.
//
// Error policy: a failed layer never takes the others down without trace.
// Each failure is a *LayerError on that layer's entries; by default the
// first one cancels the sibling searches (errgroup-style fail-fast), with
// fuse.ContinueOnError all layers run to their own conclusion. In both modes
// the schedule comes back with every layer that succeeded (totals over
// those, Failed counting the rest, no fusion cut) together with the
// errors.Join of the per-layer failures, and a panic in one layer's search
// (e.g. a poisoned cost-model evaluation) is isolated to that layer as an
// *anytime.PanicError instead of crashing the process. A failed fused member
// merely discards the groups that needed it.
func (e *Engine) ScheduleNetworkFused(ctx context.Context, net *Network, a *Arch, opt NetworkOptions, fuse FusionOptions) (NetworkSchedule, error) {
	return e.core.SolveNetworkFused(ctx, net, a, opt, fuse)
}

// ResNet18Repeats gives the occurrence count of each ResNet18Layers shape in
// the full 18-layer network (the per-shape tables list distinct shapes once).
func ResNet18Repeats() []int { return workloads.ResNet18Repeats() }
