// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on this repository's substrates. Each driver
// returns structured rows plus a rendered text table; cmd/experiments and
// the root bench suite are thin wrappers around these functions.
//
// Wall-clock scaling: the paper lets Timeloop run up to one hour per layer
// on an 8-core Xeon. The default Config scales every search budget down so
// a full regeneration takes minutes, which only *flatters* Timeloop's
// time-to-solution — the qualitative gaps (Sunstone orders of magnitude
// faster at equal-or-better EDP) are preserved and typically understated.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/registry"
	"sunstone/internal/baselines/timeloop"
	"sunstone/internal/core"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// Config scales the experiment budgets.
type Config struct {
	// Quick shrinks layer sets and search budgets for CI-speed runs.
	Quick bool
	// Seed drives every randomized baseline.
	Seed int64
	// LayerTimeout, when positive, bounds each tool's per-workload search
	// wall-clock via the anytime contract: a run that hits the deadline
	// still reports its best mapping so far, with ToolRun.Stopped noting
	// the early stop. Zero means every tool runs its own natural budget.
	LayerTimeout time.Duration
	// Ctx, when non-nil, is the base context every search runs under —
	// cmd/experiments installs its -trace collector here so a whole
	// figure regeneration exports as one Chrome trace. Nil means
	// context.Background().
	Ctx context.Context
	// Retry, when non-nil, is every Sunstone cell's Options.Retry (the
	// graceful-degradation path); the attempt count and any fallback used
	// land in the ToolRun and the runs CSV. Nil is the plain single-attempt
	// search the committed numbers use.
	Retry *core.RetryPolicy
	// Threads sets every search's intra-search worker-pool size
	// (Options.Threads). Zero means all cores. Results are identical at
	// any value — only wall-clock changes — so the committed numbers do
	// not depend on it.
	Threads int
}

// options applies the Config-wide search knobs to one experiment's Options.
func (c Config) options(o core.Options) core.Options {
	o.Threads = c.Threads
	o.Retry = c.Retry
	return o
}

// ctx returns the configured base context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// tools resolves baseline registry names (internal/baselines/registry) to
// fresh mappers scoring on eng's cached cost sessions, so the
// per-(workload, arch) tables behind the fast-path evaluator are built once
// per figure rather than once per (tool, workload) cell. The Timeloop
// entries get this Config's wall-clock-scaled budgets. Names are
// compile-time constants in the Fig drivers below, so an unknown one is a
// programming error.
func (c Config) tools(eng *core.Engine, names ...string) []baselines.Mapper {
	out := make([]baselines.Mapper, 0, len(names))
	for _, name := range names {
		m, ok := registry.Lookup(eng, name)
		if !ok {
			panic("experiments: unknown baseline registry name " + name)
		}
		if tl, isTL := m.(*timeloop.Mapper); isTL {
			switch name {
			case "timeloop-fast":
				tl.Cfg = c.tlFast()
			case "timeloop-slow":
				tl.Cfg = c.tlSlow()
			}
		}
		out = append(out, m)
	}
	return out
}

// DefaultConfig is the configuration the committed EXPERIMENTS.md numbers
// were produced with.
func DefaultConfig() Config { return Config{Quick: false, Seed: 1} }

// tlFast/tlSlow return the Table V Timeloop configurations with wall-clock
// budgets scaled per Config.
func (c Config) tlFast() timeloop.Config {
	cfg := timeloop.Fast()
	cfg.Seed = c.Seed
	if c.Quick {
		cfg.TO, cfg.MaxTime = 2000, 2*time.Second
	} else {
		cfg.MaxTime = 15 * time.Second
	}
	return cfg
}

func (c Config) tlSlow() timeloop.Config {
	cfg := timeloop.Slow()
	cfg.Seed = c.Seed
	if c.Quick {
		cfg.TO, cfg.VC, cfg.MaxTime = 8000, 300, 4*time.Second
	} else {
		cfg.MaxTime = 45 * time.Second
	}
	return cfg
}

// ToolRun is one (tool, workload) cell of a figure.
type ToolRun struct {
	Tool     string
	Workload string
	EDP      float64
	EnergyPJ float64
	Cycles   float64
	// Seconds is the tool's wall-clock time-to-solution for this cell.
	Seconds float64
	Valid   bool
	Reason  string
	// Stopped is empty for a run that completed naturally; otherwise the
	// StopReason string ("deadline", "canceled", "budget") of an anytime
	// early return — the EDP then reflects the best mapping found so far.
	Stopped string
	// Attempts counts the resilient path's tries (0 = plain single-attempt
	// path); Fallback names the fallback mapper that produced the result
	// when the primary search degraded. See Config.Retry.
	Attempts int
	Fallback string
	// BoundPruned counts candidates the admissible analytical lower bound
	// cut before evaluation; SeedEDP is the closed-form seed mapping's EDP
	// (0 when seeding was off or the seed failed). Sunstone cells only.
	BoundPruned uint64
	SeedEDP     float64
	// Group renders a network-level run's chosen fusion cut — groups
	// joined by '|', members within a group by '+' — and FusedEDP the
	// fused schedule's whole-network EDP (the unfused baseline lands in
	// EDP on the matching Sunstone row). Fusion-experiment cells only.
	Group    string
	FusedEDP float64
}

// stoppedLabel renders a StopReason for ToolRun.Stopped: empty when the
// search ran to completion.
func stoppedLabel(r anytime.StopReason) string {
	if r == anytime.Complete {
		return ""
	}
	return r.String()
}

// runSunstone wraps the optimizer as a ToolRun producer; cfg.LayerTimeout
// bounds the search via Options.Timeout. The search runs through eng, the
// figure-wide Engine, so a workload appearing in several cells (or shared
// with a baseline, see tools) compiles its problem artifacts once.
func runSunstone(cfg Config, eng *core.Engine, w *tensor.Workload, a *arch.Arch) ToolRun {
	opt := cfg.options(core.Options{Timeout: cfg.LayerTimeout})
	res, err := eng.Solve(cfg.ctx(), core.Problem{Workload: w, Arch: a}, opt)
	tr := ToolRun{Tool: "Sunstone", Workload: w.Name}
	if err != nil {
		tr.Reason = err.Error()
		tr.Attempts = len(res.Attempts)
		return tr
	}
	tr.EDP = res.Report.EDP
	tr.EnergyPJ = res.Report.EnergyPJ
	tr.Cycles = res.Report.Cycles
	tr.Seconds = res.Elapsed.Seconds()
	tr.Valid = res.Report.Valid
	tr.Stopped = stoppedLabel(res.Stopped)
	tr.Attempts = len(res.Attempts)
	tr.Fallback = res.FallbackUsed
	tr.BoundPruned = res.Stats.BoundPruned
	tr.SeedEDP = res.SeedEDP
	return tr
}

// runBaseline runs one prior-art mapper under cfg.LayerTimeout (via the
// MapContext anytime contract) so head-to-head wall-clock budgets are fair.
func runBaseline(cfg Config, m baselines.Mapper, w *tensor.Workload, a *arch.Arch) ToolRun {
	ctx := cfg.ctx()
	if cfg.LayerTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.LayerTimeout)
		defer cancel()
	}
	r := m.MapContext(ctx, w, a)
	tr := ToolRun{
		Tool: m.Name(), Workload: w.Name,
		Seconds: r.Elapsed.Seconds(), Valid: r.Valid, Reason: r.InvalidReason,
		Stopped: stoppedLabel(r.Stopped),
	}
	if r.Valid {
		tr.EDP = r.Report.EDP
		tr.EnergyPJ = r.Report.EnergyPJ
		tr.Cycles = r.Report.Cycles
	}
	return tr
}

// RenderRuns renders tool-run rows grouped by workload: EDP (normalized to
// Sunstone's) and time-to-solution — the two panels of Figs. 6-8.
func RenderRuns(title string, runs []ToolRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	byWorkload := map[string][]ToolRun{}
	var names []string
	for _, r := range runs {
		if _, ok := byWorkload[r.Workload]; !ok {
			names = append(names, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wname := range names {
		rows := byWorkload[wname]
		var sunEDP float64
		for _, r := range rows {
			if r.Tool == "Sunstone" {
				sunEDP = r.EDP
			}
		}
		fmt.Fprintf(&b, "  %s\n", wname)
		for _, r := range rows {
			note := ""
			if r.Stopped != "" {
				note = "  [stopped: " + r.Stopped + "]"
			}
			if !r.Valid {
				fmt.Fprintf(&b, "    %-12s INVALID (%s)  time %.2fs%s\n", r.Tool, r.Reason, r.Seconds, note)
				continue
			}
			rel := r.EDP / sunEDP
			fmt.Fprintf(&b, "    %-12s EDP %.3e (%.2fx Sunstone)  time %.2fs%s\n", r.Tool, r.EDP, rel, r.Seconds, note)
		}
	}
	return b.String()
}

// Geomean returns the geometric mean of xs (1 for empty).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Summary aggregates a figure's runs: per-tool geomean EDP ratio vs
// Sunstone (valid layers only), invalid counts, and total time.
type Summary struct {
	Tool          string
	GeomeanEDPRel float64 // geomean of tool EDP / Sunstone EDP over co-valid layers
	Invalid       int
	Layers        int
	TotalSeconds  float64
	SpeedupVsSun  float64 // tool time / Sunstone time (total)
}

// Summarize computes per-tool aggregates for a set of runs.
func Summarize(runs []ToolRun) []Summary {
	sunEDP := map[string]float64{}
	sunTime := 0.0
	for _, r := range runs {
		if r.Tool == "Sunstone" {
			sunEDP[r.Workload] = r.EDP
			sunTime += r.Seconds
		}
	}
	byTool := map[string]*Summary{}
	var order []string
	for _, r := range runs {
		s, ok := byTool[r.Tool]
		if !ok {
			s = &Summary{Tool: r.Tool}
			byTool[r.Tool] = s
			order = append(order, r.Tool)
		}
		s.Layers++
		s.TotalSeconds += r.Seconds
		if !r.Valid {
			s.Invalid++
		}
	}
	for _, tool := range order {
		s := byTool[tool]
		var ratios []float64
		for _, r := range runs {
			if r.Tool == tool && r.Valid && sunEDP[r.Workload] > 0 {
				ratios = append(ratios, r.EDP/sunEDP[r.Workload])
			}
		}
		s.GeomeanEDPRel = Geomean(ratios)
		if sunTime > 0 {
			s.SpeedupVsSun = s.TotalSeconds / sunTime
		}
	}
	out := make([]Summary, 0, len(order))
	for _, tool := range order {
		out = append(out, *byTool[tool])
	}
	return out
}

// RenderSummaries renders per-tool aggregates.
func RenderSummaries(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-12s %-18s %-10s %s\n", "tool", "geomean EDP vs sun", "invalid", "total time")
	for _, s := range sums {
		fmt.Fprintf(&b, "  %-12s %-18.2f %d/%-8d %.1fs (%.0fx Sunstone)\n",
			s.Tool, s.GeomeanEDPRel, s.Invalid, s.Layers, s.TotalSeconds, s.SpeedupVsSun)
	}
	return b.String()
}

// inceptionWULayers returns the Fig. 7 workloads (weight update, batch 16).
func inceptionWULayers(quick bool) []*tensor.Workload {
	shapes := workloads.InceptionV3
	if quick {
		shapes = []workloads.ConvShape{shapes[0], shapes[4], shapes[6], shapes[8]}
	}
	var ws []*tensor.Workload
	for _, cs := range shapes {
		ws = append(ws, cs.WeightUpdate(16))
	}
	return ws
}

// resnetLayers returns ResNet-18 inference workloads at the given batch.
func resnetLayers(quick bool, batch int) []*tensor.Workload {
	shapes := workloads.ResNet18
	if quick {
		shapes = []workloads.ConvShape{shapes[0], shapes[1], shapes[5], shapes[10]}
	}
	var ws []*tensor.Workload
	for _, cs := range shapes {
		ws = append(ws, cs.Inference(batch))
	}
	return ws
}

// Fig6 — non-DNN tensor kernels (MTTKRP rank 32, TTMc rank 8, SDDMM rank
// 512) on the conventional accelerator: Sunstone vs Timeloop fast/slow
// (Figs. 6a EDP and 6b time-to-solution).
func Fig6(cfg Config) []ToolRun {
	ws := []*tensor.Workload{
		workloads.MTTKRPOn(workloads.Nell2),
		workloads.TTMcOn(workloads.Nell2),
		workloads.SDDMMOn(workloads.Bcsstk17),
	}
	if !cfg.Quick {
		ws = append(ws,
			workloads.MTTKRPOn(workloads.Netflix),
			workloads.MTTKRPOn(workloads.Poisson1),
			workloads.TTMcOn(workloads.Netflix),
			workloads.TTMcOn(workloads.Poisson1),
			workloads.SDDMMOn(workloads.Cant),
		)
	}
	a := arch.Conventional()
	eng := core.NewEngine(0)
	var runs []ToolRun
	for _, w := range ws {
		runs = append(runs, runSunstone(cfg, eng, w, a))
		for _, m := range cfg.tools(eng, "timeloop-fast", "timeloop-slow") {
			runs = append(runs, runBaseline(cfg, m, w, a))
		}
	}
	return runs
}

// Fig7 — weight update (batch 16) of Inception-v3 layers on the
// conventional accelerator: Sunstone vs TL fast/slow, dMaze fast/slow,
// Interstellar; invalid results flagged (Figs. 7a/7b).
func Fig7(cfg Config) []ToolRun {
	a := arch.Conventional()
	eng := core.NewEngine(0)
	var runs []ToolRun
	for _, w := range inceptionWULayers(cfg.Quick) {
		runs = append(runs, runSunstone(cfg, eng, w, a))
		for _, m := range cfg.tools(eng, "timeloop-fast", "timeloop-slow", "dmaze-fast", "dmaze-slow", "interstellar") {
			runs = append(runs, runBaseline(cfg, m, w, a))
		}
	}
	return runs
}

// Fig8 — inference (batch 16) of ResNet-18 layers on the Simba-like
// accelerator: Sunstone vs Timeloop and CoSA (Figs. 8a/8b). dMazeRunner and
// Interstellar cannot target multi-spatial-level machines.
func Fig8(cfg Config) []ToolRun {
	a := arch.Simba()
	eng := core.NewEngine(0)
	var runs []ToolRun
	for _, w := range resnetLayers(cfg.Quick, 16) {
		runs = append(runs, runSunstone(cfg, eng, w, a))
		names := []string{"timeloop-fast"}
		if !cfg.Quick {
			names = append(names, "timeloop-slow")
		}
		names = append(names, "cosa")
		for _, m := range cfg.tools(eng, names...) {
			runs = append(runs, runBaseline(cfg, m, w, a))
		}
	}
	return runs
}

// sortedKeys returns map keys sorted (shared by renderers).
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// RunsCSV renders tool runs as CSV (workload,tool,valid,edp,energy_pj,
// cycles,seconds,stopped,attempts,fallback,bound_pruned,seed_edp,group,
// fused_edp,reason) for plotting the figures externally. The stopped column
// is empty for naturally-completed runs and otherwise holds the StopReason
// string of an anytime early return; attempts is 0 and fallback empty unless
// the run went through the resilient path (Config.Retry); bound_pruned
// and seed_edp report the analytical layer's work on Sunstone cells (0 for
// baselines and when the layer is off); group and fused_edp carry the fusion
// experiment's chosen cut and whole-network fused EDP (empty/0 on per-layer
// cells).
func RunsCSV(runs []ToolRun) string {
	var b strings.Builder
	b.WriteString("workload,tool,valid,edp,energy_pj,cycles,seconds,stopped,attempts,fallback,bound_pruned,seed_edp,group,fused_edp,reason\n")
	for _, r := range runs {
		reason := strings.ReplaceAll(r.Reason, ",", ";")
		fmt.Fprintf(&b, "%s,%s,%t,%g,%g,%g,%.3f,%s,%d,%s,%d,%g,%s,%g,%s\n",
			r.Workload, r.Tool, r.Valid, r.EDP, r.EnergyPJ, r.Cycles, r.Seconds, r.Stopped,
			r.Attempts, r.Fallback, r.BoundPruned, r.SeedEDP, r.Group, r.FusedEDP, reason)
	}
	return b.String()
}
