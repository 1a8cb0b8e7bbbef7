package sunstone

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/core"
	"sunstone/internal/network"
	"sunstone/internal/obs"
	"sunstone/internal/workloads"
)

// Fusion IR surface (internal/network): the typed Network of Layer nodes
// with explicit producer→consumer tensor Edges that both network schedulers
// consume.
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
	// FusionOptions configures the fused network scheduler on top of the
	// per-member search Options.
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

// LayerSchedule is one layer's outcome within a network schedule.
type LayerSchedule struct {
	Layer   string
	Result  Result
	Repeats int // identical layers mapped once, counted Repeats times
	// Err is this layer's failure, if any (nil for a mapped layer). Failed
	// layers carry no mapping and are excluded from the network totals.
	Err error
}

// GroupSchedule is one fused segment of a fusion-aware network schedule: the
// contiguous chain positions [Start, End) whose intermediate tensors stayed
// resident on-chip at PinLevel. Singleton groups (End-Start == 1) are
// unfused layer occurrences with PinLevel -1.
type GroupSchedule struct {
	Layers     []string
	Start, End int
	PinLevel   int
	EnergyPJ   float64
	Cycles     float64
}

// NetworkSchedule aggregates a whole network's mapping results.
type NetworkSchedule struct {
	Network       string
	Layers        []LayerSchedule
	TotalEnergyPJ float64
	TotalCycles   float64
	// EDP is the network-level energy-delay product (total energy x total
	// cycles, layers executed back to back).
	EDP float64
	// Failed counts layers that returned an error; when it is non-zero the
	// totals cover only the layers that succeeded.
	Failed  int
	Elapsed time.Duration
	// Fused marks a schedule produced by the fusion-aware scheduler: Layers
	// then holds one entry per executed chain position (repeats expanded,
	// Repeats 1 each), Groups records the chosen fusion cut, and UnfusedEDP
	// the all-singleton baseline from the same run.
	Fused      bool
	Groups     []GroupSchedule
	UnfusedEDP float64
}

// NetworkOptions configures ScheduleNetwork and ScheduleNetworkFused: the
// Options every layer's Solve runs under (Retry included) plus the
// network-level error policy.
type NetworkOptions struct {
	Options
	// ContinueOnError keeps optimizing the remaining layers after one
	// fails, collecting every per-layer error (joined in the returned
	// error) and still returning the layers that succeeded. The default
	// (false) is errgroup-style fail-fast: the first failure cancels the
	// sibling layer searches, which then return their best-so-far mappings
	// with Result.Stopped = StopCanceled.
	ContinueOnError bool
}

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

// ScheduleNetwork maps every layer of a network onto the architecture under
// ctx, one independent Solve per layer (no fusion) through the Engine's
// compilation cache (repeated shapes compile once; an already-warm Engine
// recompiles nothing). The per-layer searches run concurrently and inherit
// ctx (plus Options.Timeout, which bounds each layer's search individually),
// so canceling ctx degrades every in-flight layer to its best-so-far mapping.
// Each layer contributes one LayerSchedule whose totals are weighted by its
// Repeats; with opt.Retry set, each layer's attempts are recorded in its
// Result.Attempts / Result.FallbackUsed.
//
// Error policy: a failed layer never aborts the others mid-flight without
// trace. By default the first failure cancels the sibling searches
// (errgroup-style fail-fast) and the joined errors of every failed layer are
// returned; with opt.ContinueOnError all layers run to their own conclusion
// and the schedule keeps every layer that succeeded. In both modes the
// returned error is the errors.Join of all per-layer failures, and a panic
// in one layer's search (e.g. a poisoned cost-model evaluation) is isolated
// to that layer as an *anytime.PanicError instead of crashing the process.
func (e *Engine) ScheduleNetwork(ctx context.Context, net *Network, a *Arch, opt NetworkOptions) (NetworkSchedule, error) {
	if net == nil {
		return NetworkSchedule{}, errors.New("schedule network: nil network")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	out := NetworkSchedule{Network: net.Name, Layers: make([]LayerSchedule, len(net.Layers))}
	errs := make([]error, len(net.Layers))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// siblingFailed is set before the fail-fast cancel fires, so a layer
	// whose search died *because* of that cancellation classifies as
	// sibling-cancel rather than an ordinary search failure. The store
	// happens-before the cancel, and the cancel happens-before any sibling
	// observes it, so the flag is always visible to the layers it explains.
	var siblingFailed atomic.Bool
	failLayer := func(i int, name string, err error) {
		lerr := &LayerError{Layer: name, Cause: core.ClassifyFailure(err, siblingFailed.Load()), Err: err}
		errs[i] = lerr
		out.Layers[i].Err = lerr
		if !opt.ContinueOnError {
			siblingFailed.Store(true)
			cancel() // fail fast: siblings stop at their next poll
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range net.Layers {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			l := &net.Layers[i]
			out.Layers[i].Layer = l.Name
			defer func() {
				if e := anytime.PanicErrorFrom(recover(), "schedule layer "+l.Name, nil); e != nil {
					failLayer(i, l.Name, e)
				}
			}()
			// Each layer's search gets its own root span — its own thread
			// row in the exported trace — because layers run concurrently
			// and would otherwise render as one overlapped track.
			lctx := ctx
			if tr := obs.TraceOf(ctx); tr != nil {
				lsp := tr.StartRoot("layer " + l.Name)
				defer lsp.End()
				lctx = obs.WithSpan(ctx, lsp)
			}
			res, err := e.Solve(lctx, Problem{Workload: l.Workload, Arch: a}, opt.Options)
			if err != nil {
				failLayer(i, l.Name, err)
				return
			}
			out.Layers[i] = LayerSchedule{Layer: l.Name, Result: res, Repeats: l.Repeats}
		}(i)
	}
	wg.Wait()

	for i := range out.Layers {
		l := &out.Layers[i]
		if l.Err != nil || l.Result.Mapping == nil {
			out.Failed++
			continue
		}
		out.TotalEnergyPJ += l.Result.Report.EnergyPJ * float64(l.Repeats)
		out.TotalCycles += l.Result.Report.Cycles * float64(l.Repeats)
	}
	out.EDP = out.TotalEnergyPJ * out.TotalCycles
	out.Elapsed = time.Since(start)
	return out, errors.Join(errs...)
}

// ScheduleNetworkFused schedules the network with fusion-aware cuts
// (internal/core's fused solver): contiguous chain segments connected by IR
// edges may execute as one group whose intermediate tensors stay resident
// on-chip instead of round-tripping DRAM, and an exact DP over the cut
// space picks the grouping with the lowest total EDP. The all-singleton cut
// is always a candidate, so the fused schedule never scores worse than the
// unfused baseline (returned alongside in UnfusedEDP).
//
// The returned schedule expands layer repeats: Layers holds one entry per
// executed chain position with Repeats 1, and Groups records the chosen
// fusion cut over those positions. opt.Retry covers every member search,
// singleton and fused. Scheduling is fail-fast on the singleton baseline
// (its failures are joined per-layer errors); a failed fused member merely
// discards the groups that needed it.
func (e *Engine) ScheduleNetworkFused(ctx context.Context, net *Network, a *Arch, opt NetworkOptions, fuse FusionOptions) (NetworkSchedule, error) {
	res, err := e.core.SolveNetworkFused(ctx, net, a, opt.Options, fuse)
	if err != nil {
		return NetworkSchedule{}, err
	}
	out := NetworkSchedule{
		Network:       res.Network,
		Fused:         true,
		TotalEnergyPJ: res.TotalEnergyPJ,
		TotalCycles:   res.TotalCycles,
		EDP:           res.EDP,
		UnfusedEDP:    res.UnfusedEDP,
		Elapsed:       res.Elapsed,
	}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, GroupSchedule{
			Layers:   append([]string(nil), g.Layers...),
			Start:    g.Start,
			End:      g.End,
			PinLevel: g.PinLevel,
			EnergyPJ: g.EnergyPJ,
			Cycles:   g.Cycles,
		})
		for i, m := range g.Members {
			out.Layers = append(out.Layers, LayerSchedule{Layer: g.Layers[i], Result: m, Repeats: 1})
		}
	}
	return out, nil
}

// ResNet18Repeats gives the occurrence count of each ResNet18Layers shape in
// the full 18-layer network (the per-shape tables list distinct shapes once).
func ResNet18Repeats() []int { return workloads.ResNet18Repeats() }
