// Package core implements the Sunstone dataflow optimizer — the paper's
// primary contribution.
//
// Sunstone optimizes level by level. At each memory level l (bottom-up, the
// default) it composes the three algebra-derived stages:
//
//   - loop ordering for the level above, from the pruned ordering trie
//     (internal/order) — this decides which operand OP is temporally reused
//     across level-l tiles;
//   - tiling of level l, from the tiling tree (internal/tile) grown only
//     along OP's indexing dimensions (the Tiling Principle);
//   - spatial unrolling across the next level's fanout (internal/unroll),
//     restricted to OP's indexing dimensions (the Unrolling Principle) and
//     filtered for high throughput.
//
// Partial mappings are scored by completing them (all remaining factors at
// the top level) and evaluating the full cost model; because most accesses
// happen at the lowest levels, these bottom-up estimates are tight, which is
// what makes the alpha-beta-style pruning effective (Section V-C of the
// paper). A beam of the best partial mappings is carried between levels.
//
// The package also implements the top-down variant and the three intra-level
// optimization orders studied in Table VI; they are reachable only through
// Options.Study (see Study).
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
)

// StopReason re-exports the anytime-search stop taxonomy (see
// internal/anytime): Solve is an anytime algorithm that
// on cancellation, deadline, or budget exhaustion returns the best mapping
// completed so far with Result.Stopped set, instead of discarding work.
type StopReason = anytime.StopReason

// Stop reasons for Result.Stopped.
const (
	StopComplete = anytime.Complete
	StopDeadline = anytime.Deadline
	StopCanceled = anytime.Canceled
	StopBudget   = anytime.Budget
)

// Strategy selects the intra-level optimization order (Table VI). All three
// converge on the same candidate set — the paper finds intra-level order
// does not significantly affect mapping quality — but they apply the
// principle-based filters at different points, so their enumeration effort
// (space size) differs.
type Strategy int

const (
	// OrderTileUnroll is the default described in Section III-C: pick an
	// ordering, grow tiles for it, then unroll for each ordering-tile pair.
	OrderTileUnroll Strategy = iota
	// TileUnrollOrder enumerates unconstrained tiles and unrollings first,
	// filtering by ordering compatibility last.
	TileUnrollOrder
	// UnrollTileOrder enumerates unrollings first, then tiles, then orders.
	UnrollTileOrder
)

func (s Strategy) String() string {
	switch s {
	case TileUnrollOrder:
		return "tiling->unrolling->ordering"
	case UnrollTileOrder:
		return "unrolling->tiling->ordering"
	default:
		return "ordering->tiling->unrolling"
	}
}

// Objective selects the figure of merit the search minimizes. The paper
// uses EDP throughout; energy-only, delay-only, and ED^2P are provided as
// extensions (useful for energy-constrained edge or latency-critical
// serving deployments).
type Objective int

const (
	// MinEDP minimizes energy x delay (the paper's merit; default).
	MinEDP Objective = iota
	// MinEnergy minimizes total energy.
	MinEnergy
	// MinDelay minimizes cycles.
	MinDelay
	// MinED2P minimizes energy x delay^2.
	MinED2P
)

func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "energy"
	case MinDelay:
		return "delay"
	case MinED2P:
		return "ED2P"
	default:
		return "EDP"
	}
}

// ParseObjective resolves an objective by the name flags and job submissions
// use, case-insensitively; "" is the default.
func ParseObjective(name string) (Objective, error) {
	switch strings.ToLower(name) {
	case "", "edp":
		return MinEDP, nil
	case "energy":
		return MinEnergy, nil
	case "delay":
		return MinDelay, nil
	case "ed2p":
		return MinED2P, nil
	}
	return 0, fmt.Errorf("unknown objective %q (edp|energy|delay|ed2p)", name)
}

// Score extracts the objective value from a report (lower is better;
// invalid reports score +Inf).
func (o Objective) Score(rep cost.Report) float64 {
	return o.scoreScalars(rep.EDP, rep.EnergyPJ, rep.Cycles, rep.Valid)
}

// scoreScalars is Score on the fast path's scalar tuple. The arithmetic is
// kept expression-identical to the Report-based form so scores are
// bit-for-bit the same whichever path produced the numbers.
func (o Objective) scoreScalars(edp, energyPJ, cycles float64, valid bool) float64 {
	if !valid {
		return math.Inf(1)
	}
	switch o {
	case MinEnergy:
		return energyPJ
	case MinDelay:
		return cycles
	case MinED2P:
		return energyPJ * cycles * cycles
	default:
		return edp
	}
}

// scoreFloor maps an admissible (energy, cycles) cost floor to a floor on
// the objective value: every Objective is monotone non-decreasing in both
// components, so a per-component floor yields a floor on the score. This is
// what lets cost.Session.LowerBound prune on any objective, not just EDP.
func (o Objective) scoreFloor(energyPJ, cycles float64) float64 {
	switch o {
	case MinEnergy:
		return energyPJ
	case MinDelay:
		return cycles
	case MinED2P:
		return energyPJ * cycles * cycles
	default:
		return energyPJ * cycles
	}
}

// Options configures the optimizer.
type Options struct {
	// Objective is the figure of merit minimized (default MinEDP).
	Objective Objective
	// BeamWidth bounds the partial mappings carried between levels
	// (default 24).
	BeamWidth int
	// AlphaSlack multiplies the best completed EDP seen so far to form the
	// alpha-beta pruning bound for partial candidates (default 16).
	AlphaSlack float64
	// MinUtilization is the high-throughput threshold for spatial
	// unrolling (default 0.5).
	MinUtilization float64
	// TilesPerStep caps the tiling candidates kept per (state, ordering,
	// unrolling) at each level, preferring the largest tiles (default 8).
	TilesPerStep int
	// UnrollsPerStep caps the unrolling candidates kept per (state,
	// ordering) at each spatial level, preferring the highest utilization
	// (default 6).
	UnrollsPerStep int
	// Threads bounds the worker goroutines used inside one search — the
	// candidate-expansion, evaluation, and polish fan-outs all share one
	// pool of this size (default GOMAXPROCS). Results are bit-identical at
	// every thread count; see TestParallelParity.
	Threads int
	// Model is the cost model (the zero Model is cost.Default).
	Model cost.Model
	// Timeout bounds one search's wall-clock (0 = unbounded). When it
	// expires the search stops at the next cancellation poll and returns
	// the best mapping completed so far with Result.Stopped = StopDeadline.
	// Without Retry that is the same as passing Solve a context with that
	// deadline. With Retry, Timeout bounds each primary attempt separately
	// and the context bounds the whole call.
	Timeout time.Duration
	// Retry, when non-nil, hardens Solve for environments where searches
	// can fail: bounded retries of the search at backed-off budgets, then
	// the innermost-fit fallback construction, with every accepted mapping
	// passing a final audit (see RetryPolicy). Attempts are recorded in
	// Result.Attempts. Nil (the default) is a single attempt.
	Retry *RetryPolicy
	// Progress, when non-nil, receives live search events: phase-started /
	// phase-finished for every per-level pass (and polish), and
	// incumbent-improved whenever the best-so-far completed mapping gets
	// better. Events are emitted synchronously from the goroutine driving
	// the search, incumbent improvements at a bounded rate; no event is
	// delivered after Solve returns. A panicking callback is
	// isolated like a poisoned candidate: progress reporting stops, the
	// panic is recorded in Result.CandidateErrors, and the search itself
	// continues unharmed.
	Progress obs.ProgressFunc
	// WarmStart, when non-nil, is a previously found complete mapping for
	// this same (workload, arch) problem — typically a crash-recovery
	// checkpoint — installed as the initial alpha-beta incumbent after the
	// analytic seed. It is rebound onto the search's compiled workload/arch
	// instances and fully validated first; a warm start that does not fit
	// degrades to a cold search (recorded in Result.CandidateErrors), it
	// never fails the run. The resumed search therefore finishes equal or
	// better than the checkpoint, never worse.
	WarmStart *mapping.Mapping
	// Study, when non-nil, runs one of the design studies instead of the
	// product search: the Table VI optimization orders, or an ablation of
	// the analytical layer or of polish. Nil is the product search. Only
	// internal/experiments, tests and benchmarks set it.
	Study *Study
}

// Study selects a search the paper or this repository ran to justify the
// product design; each returns the product search's mapping or a worse one.
// Top-down ties bottom-up at best, at many times the evaluations; the
// intra-level orders change only the space size; and the analytical layer
// and polish only ever replace the answer with a strictly better one. The
// zero Study is the product search.
type Study struct {
	// TopDown optimizes from the outermost level inward (Table VI's
	// top-down inter-level order) instead of bottom-up.
	TopDown bool
	// Strategy is the intra-level optimization order (Table VI; bottom-up
	// only).
	Strategy Strategy
	// VisitBudget caps the candidates a top-down search may enumerate
	// before it settles for the best found (0 = 4,000,000). The cap exists
	// because the top-down space is orders of magnitude larger (Table VI) —
	// exactly the pathology the paper reports.
	VisitBudget int
	// NoAnalytical switches off the analytical layer: the closed-form seed
	// incumbent and the admissible lower-bound cut (the search before
	// seeding, bit for bit).
	NoAnalytical bool
	// NoPolish switches off the greedy local-move refinement of the
	// bottom-up winner.
	NoPolish bool
}

// defaultVisitBudget is Study.VisitBudget's zero value.
const defaultVisitBudget = 4_000_000

// study returns the run's study nil-safely: the zero Study is the product
// search.
func (o Options) study() Study {
	if o.Study == nil {
		return Study{}
	}
	return *o.Study
}

// direction names the inter-level order, for spans and error messages.
func (s Study) direction() string {
	if s.TopDown {
		return "top-down"
	}
	return "bottom-up"
}

// Maximum sane values for Options.Validate: beyond these the caller almost
// certainly passed a wrong unit (e.g. nanoseconds as a count) and the search
// would never finish or would exhaust memory.
const (
	maxBeamWidth  = 1 << 20
	maxPerStep    = 1 << 20
	maxAlphaSlack = 1e12
)

// MaxThreads is the largest Options.Threads value Validate accepts. Exported
// so callers that accept a thread count from untrusted input — the scheduler
// service's job-submission `threads` field — can validate against the same
// bound before building Options.
const MaxThreads = 4096

// Validate rejects option values that today would be silently defaulted or
// silently accepted but can never be what the caller meant: NaN or negative
// floats, MinUtilization above 1 (no unrolling can exceed full utilization),
// and absurd Threads/BeamWidth magnitudes. Zero values remain "use the
// default" and are always accepted. Solve calls this on every run.
func (o Options) Validate() error {
	var errs []error
	badf := func(name string, v float64) {
		errs = append(errs, fmt.Errorf("Options.%s = %v: must be a finite non-negative number (0 = default)", name, v))
	}
	if math.IsNaN(o.AlphaSlack) || math.IsInf(o.AlphaSlack, 0) || o.AlphaSlack < 0 {
		badf("AlphaSlack", o.AlphaSlack)
	} else if o.AlphaSlack > maxAlphaSlack {
		errs = append(errs, fmt.Errorf("Options.AlphaSlack = %v: larger than %g disables pruning entirely; use 0 for the default", o.AlphaSlack, float64(maxAlphaSlack)))
	}
	if math.IsNaN(o.MinUtilization) || math.IsInf(o.MinUtilization, 0) || o.MinUtilization < 0 {
		badf("MinUtilization", o.MinUtilization)
	} else if o.MinUtilization > 1 {
		errs = append(errs, fmt.Errorf("Options.MinUtilization = %v: utilization is a fraction, must be <= 1", o.MinUtilization))
	}
	badRange := func(name string, v, max int) {
		if v < 0 {
			errs = append(errs, fmt.Errorf("Options.%s = %d: must be non-negative (0 = default)", name, v))
		} else if v > max {
			errs = append(errs, fmt.Errorf("Options.%s = %d: exceeds the sane maximum %d", name, v, max))
		}
	}
	badRange("BeamWidth", o.BeamWidth, maxBeamWidth)
	badRange("Threads", o.Threads, MaxThreads)
	badRange("TilesPerStep", o.TilesPerStep, maxPerStep)
	badRange("UnrollsPerStep", o.UnrollsPerStep, maxPerStep)
	st := o.study()
	if st.VisitBudget < 0 {
		errs = append(errs, fmt.Errorf("Options.Study.VisitBudget = %d: must be non-negative (0 = default)", st.VisitBudget))
	}
	if st.Strategy < OrderTileUnroll || st.Strategy > UnrollTileOrder {
		errs = append(errs, fmt.Errorf("Options.Study.Strategy = %d: unknown strategy", int(st.Strategy)))
	}
	if o.Timeout < 0 {
		errs = append(errs, fmt.Errorf("Options.Timeout = %v: must be non-negative (0 = unbounded)", o.Timeout))
	}
	if o.Objective < MinEDP || o.Objective > MinED2P {
		errs = append(errs, fmt.Errorf("Options.Objective = %d: unknown objective", int(o.Objective)))
	}
	return errors.Join(errs...)
}

// DefaultOptions returns the optimizer's default configuration, spelled out.
// The zero Options value is exactly equivalent: every zero field is filled
// from this set before a search runs, so Solve(ctx, p, Options{}) and
// Solve(ctx, p, DefaultOptions()) perform the identical search. Use this
// when you want to start from the defaults and tweak one knob explicitly.
func DefaultOptions() Options {
	return Options{
		Objective:      MinEDP,
		BeamWidth:      24,
		AlphaSlack:     16,
		MinUtilization: 0.5,
		TilesPerStep:   8,
		UnrollsPerStep: 6,
		Threads:        runtime.GOMAXPROCS(0),
		Model:          cost.Default,
	}
}

// withDefaults fills every zero field from DefaultOptions. This is the single
// place defaults are applied; DefaultOptions is the single place they are
// defined.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.BeamWidth <= 0 {
		o.BeamWidth = def.BeamWidth
	}
	if o.TilesPerStep <= 0 {
		o.TilesPerStep = def.TilesPerStep
	}
	if o.UnrollsPerStep <= 0 {
		o.UnrollsPerStep = def.UnrollsPerStep
	}
	if o.AlphaSlack <= 0 {
		o.AlphaSlack = def.AlphaSlack
	}
	if o.MinUtilization <= 0 {
		o.MinUtilization = def.MinUtilization
	}
	if o.Threads <= 0 {
		o.Threads = def.Threads
	}
	return o
}

// SearchStats is the counter snapshot published in Result.Stats (see
// internal/obs). For an uncancelled run the candidate flow satisfies
// Generated == Pruned() + Deduped + Evaluated.
type SearchStats = obs.SearchStats

// Result is the outcome of one optimization run.
type Result struct {
	Mapping *mapping.Mapping
	Report  cost.Report
	// Stopped records why the search returned: StopComplete for a full
	// run, StopDeadline/StopCanceled when the context ended the search
	// early (Mapping is then the best completed so far), StopBudget when
	// an enumeration budget was exhausted.
	Stopped StopReason
	// SpaceSize counts the candidate mappings the search examined — the
	// paper's "space size" merit (Tables I and VI).
	SpaceSize int
	// OrderingsConsidered is the surviving ordering-trie candidate count.
	OrderingsConsidered int
	// CandidateErrors holds panics recovered from candidate evaluations
	// (each an *anytime.PanicError with the offending mapping serialized),
	// capped at maxCandidateErrors. The search survives them: a poisoned
	// candidate simply scores invalid.
	CandidateErrors []error
	// Stats snapshots the search's telemetry counters at return: candidate
	// flow (generated / pruned by principle / deduped / evaluated /
	// skipped), post-evaluation beam cuts, and the fast-path evaluator's
	// memo-cache hits and misses.
	Stats   SearchStats
	Elapsed time.Duration
	// Attempts records every attempt the resilient path made before this
	// result was accepted, in order — the accepted attempt last with a nil
	// Err. Nil when Options.Retry is nil.
	Attempts []Attempt
	// FallbackUsed names the fallback that produced Mapping when the
	// resilient path degraded: "innermost-fit", or "journal-checkpoint" for
	// a service job recovered from its checkpoint ("" = the primary
	// Sunstone search).
	FallbackUsed string
	// SeedEDP is the EDP of the analytical seed mapping installed as the
	// initial alpha-beta incumbent (0 when seeding was disabled or the seed
	// failed to produce a valid mapping). Comparing it against Report.EDP
	// shows how much the enumeration improved on the closed-form guess.
	SeedEDP float64
	// WarmStartEDP is the EDP of the Options.WarmStart mapping as
	// re-evaluated by this search (0 when no warm start was given or it
	// failed to install). Report.EDP ≤ WarmStartEDP by construction.
	WarmStartEDP float64
}

// maxCandidateErrors caps Result.CandidateErrors so a systematically
// panicking cost model cannot balloon memory; further panics are dropped
// after the first few identical repros.
const maxCandidateErrors = 8

// optimizeCompiled runs one search over a compiled problem. opt must already
// be validated and defaulted, and ctx non-nil: Engine.Solve sees to all three.
func optimizeCompiled(ctx context.Context, comp *Compiled, opt Options) (Result, error) {
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	start := time.Now()
	sc := newSearch(comp, opt)
	ctx, root := obs.StartSpanf(ctx, "optimize %s (%s)", comp.w.Name, sc.study.direction())
	sc.prog.phase(obs.PhaseStarted, "optimize", -1)
	res, err := runLevelSearch(ctx, sc)
	res.Stats = obs.SnapshotSearch(sc.reg)
	sc.prog.phase(obs.PhaseFinished, "optimize", -1)
	if perr := sc.prog.takeErr(); perr != nil {
		res.CandidateErrors = appendCapped(res.CandidateErrors, perr)
	}
	if root != nil {
		root.Arg("stopped", res.Stopped.String())
		for _, cv := range sc.reg.Snapshot() {
			root.Arg(cv.Name, cv.Value)
		}
		root.End()
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// search is the per-run evaluation context over a compiled problem: one
// scratch evaluator and one workspace per worker thread — so the
// steady-state enumeration, completion and scoring paths never contend on
// scratch space — and the run's
// telemetry: a counter registry (candidate flow plus per-run memo-cache
// attribution) and the progress emitter. The compiled artifacts (cost
// session, orderings, seed row, ladder memo) may be shared with other
// concurrent searches; everything mutable here is per-run.
type search struct {
	opt    Options
	study  Study // opt.study(), resolved once
	comp   *Compiled
	sess   *cost.Session
	evs    []*cost.Evaluator
	ws     []*workspace // dense search scratch, one per worker; ws[i].ev == evs[i]
	orders *orderTable  // what the loop-order indices in this run's rows mean
	reg    *obs.Registry
	ctr    *obs.SearchCounters
	prog   *progressEmitter
	// best is the shared atomic incumbent score: published lock-free by the
	// evaluation workers as candidates complete, consumed only at step
	// barriers to seed the alpha-beta bound (see prune) — deterministic
	// there, because by the barrier every score of the step has landed.
	best *bestScore
}

func newSearch(comp *Compiled, opt Options) *search {
	sc := &search{opt: opt, study: opt.study(), comp: comp, sess: comp.sess, best: newBestScore()}
	// Clipped, so that registering a warm start's orders copies the table
	// instead of writing into the compiled one's spare capacity.
	orders := slices.Clip(comp.dims.orders)
	sc.orders = &orders
	sc.evs = make([]*cost.Evaluator, opt.Threads)
	sc.ws = make([]*workspace, opt.Threads)
	sc.reg = obs.NewRegistry()
	sc.ctr = obs.NewSearchCounters(sc.reg)
	// Cache hits/misses are charged to per-run counters (as well as the
	// session's lifetime tally) so Result.Stats partitions per call even
	// when an Engine shares one session across many searches.
	for i := range sc.evs {
		sc.evs[i] = sc.sess.NewEvaluator()
		sc.evs[i].CountCacheInto(sc.ctr.EvalCacheHits, sc.ctr.EvalCacheMisses)
		sc.ws[i] = newWorkspace(comp, sc.orders, sc.evs[i])
	}
	sc.prog = newProgressEmitter(opt.Progress, sc.ctr)
	return sc
}

// cand is one candidate between expansion and scoring: its row (aliasing a
// memo entry or a polish arena, read-only) and the canonical key dedupe
// compares (zero for polish moves, which are not deduped).
type cand struct {
	row []int
	key cost.Key
}

// state is one partial mapping plus its completed-cost estimate, both as
// rows. Only the fast path's scalars are carried — a full cost.Report is
// materialized once, for the search's final mapping.
type state struct {
	row       []int   // the partial mapping: what the next step extends
	completed []int   // its evaluated completion (nil when skipped or poisoned)
	score     float64 // objective value of the completed form
	energyPJ  float64
	cycles    float64
	valid     bool
	key       []byte // deterministic tie-break, rendered lazily on first use
}

// completeFn turns the partial mapping in row into its evaluable completion,
// left in the calling worker's workspace; each direction supplies its own
// (see sequencer). It runs on the evaluation fan-out's worker goroutines.
type completeFn func(ws *workspace, row []int)

// completeUp builds row's full (evaluable) completion the bottom-up way:
// every intermediate level is greedily filled with whatever remaining
// factors fit its buffers (a stand-in for the optimization the upper steps
// will perform — this is what makes the bottom-up completed-cost estimates
// tight), and the final remainder lands at the unbounded top level.
func (sc *search) completeUp(ws *workspace, row []int) {
	dt, p := &sc.comp.dims, &ws.p
	ws.load(row)
	top := p.nl - 1
	for l := 1; l < top; l++ {
		ws.fc.reset(p, l, false)
		sc.residualFill(ws, l, nil)
	}
	trow := p.trow(top)
	for i, bound := range dt.bound {
		if need := ceilDiv(bound, p.extent(i, 0, top)); trow[i] < need {
			trow[i] = need
		}
	}
}

// evalAll scores the completed forms of the given candidates in parallel and
// returns them as states sorted by (score, render) for determinism, plus
// any panics recovered from poisoned evaluations (capped at
// maxCandidateErrors). A nil cf means the candidates are complete as they
// are. Scoring runs on the row entry point of the cost model through the
// shared intra-search pool (runParallel): a fixed set of workers — one
// workspace with its scratch Evaluator each, indexed by worker id — pulls
// indices off an atomic counter, and the completions land in one arena, so
// the fan-out allocates nothing per candidate. Each valid score is published
// to the search's shared atomic incumbent as it lands, so the alpha-beta
// bound consumed at the next step barrier is the tightest available. Once
// ctx is done the remaining unevaluated candidates are skipped — they surface
// as +Inf states the caller's prune discards — so a cancel drains the worker
// pool within one evaluation per thread.
func (sc *search) evalAll(ctx context.Context, cands []cand, cf completeFn) ([]state, []error) {
	states := make([]state, len(cands))
	var completions []int
	if cf != nil {
		completions = make([]int, len(cands)*sc.comp.shape.stride())
	}
	var mu sync.Mutex
	var panics []error
	runParallel(len(sc.ws), len(cands), func(wk, i int) {
		sc.evalOne(ctx, sc.ws[wk], cands[i].row, &states[i], i, cf, completions, &mu, &panics)
	})
	sc.sortStates(states)
	return states, panics
}

// evalOne scores candidate i (row) into *out, containing a cost-model panic
// to this one candidate (the worker loop survives and keeps draining).
func (sc *search) evalOne(ctx context.Context, ws *workspace, row []int, out *state, i int, cf completeFn, completions []int, mu *sync.Mutex, panics *[]error) {
	*out = state{row: row, score: math.Inf(1)}
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "evaluate candidate mapping", func() string { return reproMapping(sc.materialize(row)) }); e != nil {
			*out = state{row: row, score: math.Inf(1)}
			mu.Lock()
			if len(*panics) < maxCandidateErrors {
				*panics = append(*panics, e)
			}
			mu.Unlock()
		}
	}()
	if ctx.Err() != nil {
		sc.ctr.Skipped.Inc()
		return
	}
	// Counted before the attempt so a poisoned candidate still counts as
	// evaluated (its fate is "attempted", not "skipped").
	sc.ctr.Evaluated.Inc()
	completed, p := row, sc.comp.shape.view(row)
	if cf != nil {
		cf(ws, row)
		n := len(row)
		completed, p = completions[i*n:(i+1)*n:(i+1)*n], ws.p
		copy(completed, p.row)
	}
	edp, energyPJ, cycles, valid := ws.ev.EvaluateRows(p.t, p.s, ws.orders.resolve(ws.oidx, &p))
	*out = state{
		row:       row,
		completed: completed,
		score:     sc.opt.Objective.scoreScalars(edp, energyPJ, cycles, valid),
		energyPJ:  energyPJ,
		cycles:    cycles,
		valid:     valid,
	}
	if valid {
		sc.best.publish(out.score)
	}
}

// sortStates orders states by (score, render). The render — the partial
// mapping's canonical string, written from its row into one arena — is
// computed lazily, only for states in a score tie, and never for unscored
// (+Inf) ones: no caller reads past the scored prefix, so their relative
// order is unobservable.
func (sc *search) sortStates(states []state) {
	var arena []byte
	var seen []bool
	tieKey := func(s *state) []byte {
		if s.key == nil {
			if seen == nil {
				seen = make([]bool, sc.comp.shape.nd)
			}
			lo := len(arena)
			arena = sc.renderRow(arena, s.row, seen)
			s.key = arena[lo:len(arena):len(arena)]
		}
		return s.key
	}
	sort.Slice(states, func(i, j int) bool {
		a, b := &states[i], &states[j]
		if a.score != b.score {
			return a.score < b.score
		}
		if math.IsInf(a.score, 1) {
			return false
		}
		return bytes.Compare(tieKey(a), tieKey(b)) < 0
	})
}

// dedupe removes duplicate partial mappings (same canonical fast-path key),
// keeping the first occurrence. Distinct enumeration paths routinely
// reproduce the same (ordering, tile, unroll) state, and every duplicate
// would cost a full completion + evaluation in the fan-out.
func (sc *search) dedupe(cands []cand) []cand {
	if len(cands) < 2 {
		return cands
	}
	seen := make(map[cost.Key]struct{}, len(cands))
	out := cands[:0]
	for _, c := range cands {
		if _, dup := seen[c.key]; dup {
			continue
		}
		seen[c.key] = struct{}{}
		out = append(out, c)
	}
	sc.ctr.Deduped.Add(uint64(len(cands) - len(out)))
	return out
}

// containedRows is one memoized scalar evaluation of a complete row outside
// the evalAll worker pool — a mapping being installed on the incumbent before
// the first step — with a cost-model panic converted into +Inf invalid
// scalars plus a *anytime.PanicError.
func (sc *search) containedRows(row []int) (edp, energyPJ, cycles float64, valid bool, err error) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "evaluate mapping", func() string { return reproMapping(sc.materialize(row)) }); e != nil {
			edp, energyPJ, cycles, valid = math.Inf(1), math.Inf(1), math.Inf(1), false
			err = e
		}
	}()
	ws, p := sc.ws[0], sc.comp.shape.view(row)
	edp, energyPJ, cycles, valid = ws.ev.EvaluateRows(p.t, p.s, sc.orders.resolve(ws.oidx, &p))
	return edp, energyPJ, cycles, valid, nil
}

// reproMapping serializes m for panic-repro messages: JSON (reloadable via
// serde.DecodeMapping) when possible, the human render otherwise.
func reproMapping(m *mapping.Mapping) string {
	if m == nil {
		return "<nil mapping>"
	}
	if data, err := serde.EncodeMapping(m); err == nil {
		return string(data)
	}
	return m.String()
}

// prune applies beam and alpha-beta selection to sorted states, reporting
// how many already-evaluated candidates the alpha-beta bound and the beam
// width discarded (these are post-evaluation cuts — subsets of the
// evaluated count, not part of the generated = pruned + deduped + evaluated
// flow identity).
//
// alphaSeed is the search-wide incumbent score carried in from previous
// steps (+Inf when none): the bound is the tighter of the seed and this
// step's own best, so a strong earlier level keeps pruning a weak later
// one. The best valid state of the step always survives regardless — the
// beam must never empty just because the whole step trails the incumbent.
func prune(states []state, opt Options, alphaSeed float64) (out []state, boundCut, beamCut int) {
	alpha := alphaSeed
	for _, s := range states {
		if math.IsInf(s.score, 1) {
			continue
		}
		if s.score < alpha {
			alpha = s.score
		}
		break
	}
	for _, s := range states {
		if math.IsInf(s.score, 1) {
			continue
		}
		if len(out) > 0 && s.score > alpha*opt.AlphaSlack {
			boundCut++ // alpha-beta: provably far from the incumbent
			continue
		}
		if len(out) >= opt.BeamWidth {
			beamCut++
			continue
		}
		out = append(out, s)
	}
	return out, boundCut, beamCut
}

// prunedAndCount is prune plus counter accounting, the form every search
// loop uses. The alpha seed is read from the shared atomic incumbent at the
// post-evaluation barrier, where its value is a deterministic function of
// the candidate flow (every score of the step has been published by the time
// evalAll joins its workers).
func (sc *search) prunedAndCount(states []state) []state {
	out, boundCut, beamCut := prune(states, sc.opt, sc.best.load())
	sc.ctr.PrunedBound.Add(uint64(boundCut))
	sc.ctr.PrunedBeam.Add(uint64(beamCut))
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
