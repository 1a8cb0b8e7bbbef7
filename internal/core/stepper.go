package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/cost"
	"sunstone/internal/faults"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
)

// This file is the direction-agnostic level-sequencing engine. Bottom-up and
// top-down used to carry near-duplicate ~400-line drivers; what actually
// differs between them is captured by a sequencer — which levels are stepped
// in which order, how a step's candidates are expanded, how a partial
// mapping is completed for scoring, and whether a per-step visit budget and
// the final polish apply. Everything else — beam expansion, dedupe, the
// evaluation fan-out, alpha-beta/beam pruning, incumbent tracking, counter
// flow, span/progress emission, anytime early returns — runs once, here.

// sequencer parameterizes one search direction for the shared stepper.
type sequencer struct {
	// levels lists the per-level steps in execution order: 0..top-1 for
	// bottom-up, top..1 for top-down.
	levels []int
	// stepBudget caps the candidates one step may visit (math.MaxInt when
	// the direction is unbudgeted). Top-down splits its visit budget evenly
	// across steps so the enormous DRAM-level branching cannot starve the
	// lower steps; within a step the budget is pre-partitioned across the
	// (state, ordering) work units (see expandStep).
	stepBudget int
	// budgeted reports whether stepBudget binds (top-down). It decides
	// whether the per-state budget share is part of the expansion-memo key
	// and whether unit truncation is tracked.
	budgeted bool
	// polish enables the final refinement (bottom-up only: its last step's
	// winner is a fully-assigned mapping worth perturbing).
	polish bool
	// stateEffort charges per-state enumeration overhead not tied to any
	// single ordering — the non-default strategies' unguided first stages.
	// Nil when the direction has none.
	stateEffort func(ctx context.Context, ws *workspace, base []int, lvl int) int
	// expandUnit generates the candidate extensions of one (state, ordering)
	// work unit at a level — ordering oi of the compiled set — under the
	// unit's pre-partitioned visit budget, in the calling worker's workspace.
	// Unit functions must be pure with respect to the search: they may only
	// read shared state (the base row, the compiled artifacts — whose
	// caches are internally synchronized) and accumulate their reject
	// tallies locally in the returned unitOut; the driver flushes them once
	// per state, so the hot enumeration loops never touch an atomic.
	expandUnit func(ctx context.Context, ws *workspace, base []int, lvl, oi, budget int) unitOut
	// completeAt returns the completion used to score level lvl's partial
	// candidates (bottom-up: greedy fill upward; top-down: remaining extents
	// into the level below).
	completeAt func(lvl int) completeFn
}

// unitOut is one (state, ordering) expansion unit's result: the produced
// candidates in deterministic enumeration order — rows end to end, one dedupe
// key each (see workspace.emit) — the visit count charged against the unit's
// budget share, the locally-accumulated enumeration-reject tallies, and
// whether the unit's budget expired before enumeration finished.
type unitOut struct {
	rows            []int
	keys            []cost.Key
	visited         int
	prunedTiling    int
	prunedUnrolling int
	truncated       bool
}

// sequencer builds the direction's parameterization from the run's options.
func (sc *search) sequencer() sequencer {
	top := len(sc.comp.a.Levels) - 1
	if sc.study.TopDown {
		levels := make([]int, 0, top)
		for m := top; m >= 1; m-- {
			levels = append(levels, m)
		}
		// Every step gets its own share of the visit budget: the first
		// (DRAM) step's enormous branching would otherwise starve the lower
		// steps.
		budget := sc.study.VisitBudget
		if budget <= 0 {
			budget = defaultVisitBudget
		}
		stepBudget := budget / top
		if stepBudget < 1 {
			stepBudget = 1
		}
		return sequencer{
			levels:     levels,
			stepBudget: stepBudget,
			budgeted:   true,
			expandUnit: sc.expandTopUnit,
			completeAt: func(lvl int) completeFn { return sc.completeDownAt(lvl - 1) },
		}
	}
	levels := make([]int, 0, top)
	for l := 0; l < top; l++ {
		levels = append(levels, l)
	}
	return sequencer{
		levels:      levels,
		stepBudget:  math.MaxInt,
		polish:      true,
		stateEffort: sc.strategyEffort,
		expandUnit:  sc.expandBottomUnit,
		completeAt:  func(int) completeFn { return sc.completeUp },
	}
}

// incumbent is the anytime best-so-far: the best *completed* (evaluable)
// mapping observed at any point of the search, held as a row so an early stop
// can return real work instead of nothing. Only the fast path's scalars are
// tracked; the Mapping and its full Report are built once, by leave.
type incumbent struct {
	row      []int // its own storage; nil until a valid mapping has been scored
	score    float64
	energyPJ float64
	cycles   float64
}

// finish stamps res with the incumbent and the stop reason. When the search
// was stopped before any valid mapping completed, it reports an error — the
// only case where an anytime return has nothing to give.
func (inc *incumbent) finish(sc *search, res Result, reason StopReason) (Result, error) {
	res.Stopped = reason
	if inc.row == nil {
		if c := reason.Err(); c != nil {
			return res, fmt.Errorf("search stopped (%s) before any valid mapping was completed: %w", reason, c)
		}
		return res, fmt.Errorf("search stopped (%s) before any valid mapping was completed", reason)
	}
	sc.leave(&res, inc.row, inc.energyPJ, inc.cycles)
	return res, nil
}

// leave stamps res with the mapping in row and its full Report: where a
// search's answer, held as a row until now, becomes a Mapping.
func (sc *search) leave(res *Result, row []int, energyPJ, cycles float64) {
	res.Mapping = sc.materialize(row)
	res.Report = baselines.FinalReport(sc.evs[0], res.Mapping, energyPJ*cycles, energyPJ, cycles, true)
}

// improve makes the valid scored complete mapping in row the best-so-far when
// it is better: copied (callers pass workspace scratch, completion-arena
// slots and the shared compiled seed), published as the alpha-beta bound, and
// reported — built as a Mapping only for a progress event that is delivered.
func (sc *search) improve(inc *incumbent, phase string, lvl int, row []int, score, energyPJ, cycles float64) {
	if inc.row != nil && score >= inc.score {
		return
	}
	inc.row = append(inc.row[:0], row...)
	inc.score, inc.energyPJ, inc.cycles = score, energyPJ, cycles
	sc.best.publish(score)
	if sc.prog.admit(score, energyPJ, cycles) {
		sc.prog.report(phase, lvl, sc.materialize(row))
	}
}

// install puts a complete mapping that did not come out of the enumeration on
// the incumbent — the trivial completion (everything at the top level, so
// even an immediate cancel returns a valid mapping), the compiled analytic
// seed, Options.WarmStart — before the first step. It is counted and
// evaluated like any candidate, on the driver goroutine before any worker
// exists, so the bound it publishes is part of the search's deterministic
// prologue at every thread count. It returns the mapping's EDP, or 0 for one
// that evaluates invalid or panics the model (recorded as a candidate error,
// never raised): the search degrades to running without it.
func (sc *search) install(inc *incumbent, res *Result, phase string, row []int) float64 {
	sc.ctr.Generated.Inc()
	sc.ctr.Evaluated.Inc()
	edp, energyPJ, cycles, valid, err := sc.containedRows(row)
	if err != nil {
		res.CandidateErrors = appendCapped(res.CandidateErrors, err)
	}
	if !valid {
		return 0
	}
	sc.improve(inc, phase, -1, row, sc.opt.Objective.scoreScalars(edp, energyPJ, cycles, true), energyPJ, cycles)
	return edp
}

// rebind copies m's per-level factors onto the compiled workload/arch pair —
// the caller's warm start may bind different (but equivalent) instances than
// this search compiled — checking that the shapes line up: same level count,
// and every dimension the mapping touches is declared by the workload. It
// then runs the full legality validator, so an accepted warm start is a real
// member of this search's mapping space.
func rebind(m *mapping.Mapping, w *tensor.Workload, a *arch.Arch) (*mapping.Mapping, error) {
	if len(m.Levels) != len(a.Levels) {
		return nil, fmt.Errorf("mapping has %d levels, architecture has %d", len(m.Levels), len(a.Levels))
	}
	out := mapping.New(w, a)
	for lvl := range m.Levels {
		src := &m.Levels[lvl]
		dst := &out.Levels[lvl]
		for d, n := range src.Temporal {
			if _, ok := w.Dims[d]; !ok {
				return nil, fmt.Errorf("level %d: unknown dimension %s", lvl, d)
			}
			dst.Temporal[d] = n
		}
		for d, n := range src.Spatial {
			if _, ok := w.Dims[d]; !ok {
				return nil, fmt.Errorf("level %d: unknown dimension %s", lvl, d)
			}
			dst.Spatial[d] = n
		}
		dst.Order = append([]tensor.Dim(nil), src.Order...)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// appendCapped appends err to errs unless the cap is reached.
func appendCapped(errs []error, err error) []error {
	if len(errs) >= maxCandidateErrors {
		return errs
	}
	return append(errs, err)
}

// orderingSet replays the compiled ordering enumeration into this run's
// telemetry: the trie ran once at Compile, but every search still gets the
// span and charges the trie's rejects to its own candidate flow — every node
// examined but not surviving counts as generated + pruned-by-the-ordering-
// principle — so counters and traces are identical whether the artifacts
// were compiled cold or served from an Engine's cache.
func (sc *search) orderingSet(ctx context.Context) ([]order.Ordering, order.Stats) {
	_, osp := obs.StartSpan(ctx, "orderings")
	ostats := sc.comp.ostats
	rejects := ostats.NodesVisited - ostats.Survivors
	if rejects > 0 {
		sc.ctr.Generated.Add(uint64(rejects))
		sc.ctr.PrunedOrdering.Add(uint64(rejects))
	}
	osp.Arg("survivors", ostats.Survivors).Arg("visited", ostats.NodesVisited).End()
	return sc.comp.orderings, ostats
}

// runLevelSearch drives the unified search: seed the incumbent, step through
// the sequencer's levels carrying the beam, then finish — polishing the
// winner when the direction asks for it. It polls ctx between orderings,
// candidates and levels; on cancellation it returns the incumbent best
// completed mapping (Table VI's directions differ only via the sequencer).
func runLevelSearch(ctx context.Context, sc *search) (Result, error) {
	seq := sc.sequencer()
	orderings, ostats := sc.orderingSet(ctx)
	res := Result{OrderingsConsidered: ostats.Survivors}

	states := []state{{row: sc.comp.shape.empty()}}

	var inc incumbent
	sc.completeUp(sc.ws[0], states[0].row)
	sc.install(&inc, &res, "seed", sc.ws[0].p.row)
	if !sc.study.NoAnalytical {
		// GOMA-style closed form (internal/analytic), built once by Compile.
		if sc.comp.seedErr != nil {
			res.CandidateErrors = appendCapped(res.CandidateErrors, sc.comp.seedErr)
		} else {
			res.SeedEDP = sc.install(&inc, &res, "analytic seed", sc.comp.seed)
		}
	}
	if sc.opt.WarmStart != nil {
		// Typically a crash-recovery checkpoint. One that does not rebind
		// degrades to a cold search.
		if warm, err := rebind(sc.opt.WarmStart, sc.comp.w, sc.comp.a); err != nil {
			res.CandidateErrors = appendCapped(res.CandidateErrors, fmt.Errorf("warm start rejected: %w", err))
		} else {
			res.WarmStartEDP = sc.install(&inc, &res, "warm start", sc.comp.rowOf(sc.orders, warm))
		}
	}

	budgetHit := false
	for _, lvl := range seq.levels {
		next, hit, done, out, err := sc.runStep(ctx, &seq, lvl, states, orderings, &res, &inc)
		if done {
			return out, err
		}
		budgetHit = budgetHit || hit
		states = next
	}

	best := states[0]
	if best.completed == nil || !best.valid {
		// Evaluation of the winner was skipped or poisoned; fall back to
		// the incumbent.
		return inc.finish(sc, res, anytime.FromContext(ctx))
	}
	row, score, energyPJ, cycles := best.completed, best.score, best.energyPJ, best.cycles
	if !sc.study.NoAnalytical && inc.row != nil && inc.score < score {
		// The analytic layer can legitimately leave the final beam behind
		// the incumbent: the seed may beat everything enumeration found, and
		// a bound cut keeps subtrees out of the last step's beam. Promote
		// the incumbent to the winner (it is a full completed mapping) so
		// enabling the layer can speed the search up but never degrade its
		// answer. Gated on the layer so the disabled path stays bit-identical
		// to the historical search.
		row, score, energyPJ, cycles = inc.row, inc.score, inc.energyPJ, inc.cycles
	}
	if seq.polish && !sc.study.NoPolish {
		_, psp := obs.StartSpan(ctx, "polish")
		sc.prog.phase(obs.PhaseStarted, "polish", -1)
		polished, pe, pc, evals, perrs, reason := polish(ctx, sc, row, score, energyPJ, cycles)
		if polished != nil {
			row, energyPJ, cycles = polished, pe, pc
		}
		for _, e := range perrs {
			res.CandidateErrors = appendCapped(res.CandidateErrors, e)
		}
		res.SpaceSize += evals
		res.Stopped = reason
		sc.prog.phase(obs.PhaseFinished, "polish", -1)
		psp.Arg("evals", evals).End()
	}
	sc.leave(&res, row, energyPJ, cycles)
	if budgetHit {
		res.Stopped = StopBudget
	}
	return res, nil
}

// runStep runs one level of the search: expand every beam state under the
// step's visit budget, dedupe, evaluate the fan-out on the direction's
// completion, prune to the next beam. When the search must return at this
// level — cancellation, no feasible candidates — it reports done=true with
// the final (Result, error); otherwise it hands back the next beam.
// Extracted so the level's span and progress phase close on every early
// return.
func (sc *search) runStep(ctx context.Context, seq *sequencer, lvl int, states []state, orderings []order.Ordering, res *Result, inc *incumbent) (next []state, budgetHit, done bool, out Result, err error) {
	a := sc.comp.a
	lctx, lsp := obs.StartSpanf(ctx, "level %d (%s)", lvl, a.Levels[lvl].Name)
	defer lsp.End()
	sc.prog.phasef(obs.PhaseStarted, lvl, "level %d (%s)", lvl, a.Levels[lvl].Name)
	defer sc.prog.phasef(obs.PhaseFinished, lvl, "level %d (%s)", lvl, a.Levels[lvl].Name)

	if r := anytime.FromContext(ctx); r != StopComplete {
		out, err = inc.finish(sc, *res, r)
		return nil, false, true, out, err
	}
	_, esp := obs.StartSpan(lctx, "enumerate")
	entries := sc.expandStep(ctx, seq, lvl, states, orderings)
	n, visitedTotal := 0, 0
	for _, e := range entries {
		n += len(e.keys)
	}
	produced := make([]cand, 0, n)
	stride := sc.comp.shape.stride()
	for _, e := range entries {
		for k, key := range e.keys {
			produced = append(produced, cand{row: e.rows[k*stride : (k+1)*stride : (k+1)*stride], key: key})
		}
		res.SpaceSize += e.visited
		visitedTotal += e.visited
		budgetHit = budgetHit || e.truncated
	}
	esp.Arg("produced", len(produced)).Arg("visited", visitedTotal).End()
	if len(produced) == 0 {
		if r := anytime.FromContext(ctx); r != StopComplete {
			out, err = inc.finish(sc, *res, r)
			return nil, budgetHit, true, out, err
		}
		return nil, budgetHit, true, *res, fmt.Errorf("%s: no feasible candidates at level %d (%s)", sc.study.direction(), lvl, a.Levels[lvl].Name)
	}
	produced = sc.boundPrune(produced, lvl)
	produced = sc.dedupe(produced)
	vctx, vsp := obs.StartSpan(lctx, "evaluate")
	scored, panics := sc.evalAll(vctx, produced, seq.completeAt(lvl))
	vsp.Arg("candidates", len(produced)).End()
	for _, e := range panics {
		res.CandidateErrors = appendCapped(res.CandidateErrors, e)
	}
	next = sc.prunedAndCount(scored)
	if len(next) == 0 {
		if r := anytime.FromContext(ctx); r != StopComplete {
			out, err = inc.finish(sc, *res, r)
			return nil, budgetHit, true, out, err
		}
		return nil, budgetHit, true, *res, errors.Join(append([]error{fmt.Errorf("%s: all candidates at level %d are invalid", sc.study.direction(), lvl)}, res.CandidateErrors...)...)
	}
	if w := &next[0]; w.completed != nil && w.valid {
		sc.improve(inc, fmt.Sprintf("level %d (%s)", lvl, a.Levels[lvl].Name), lvl, w.completed, w.score, w.energyPJ, w.cycles)
	}
	if r := anytime.FromContext(ctx); r != StopComplete {
		out, err = inc.finish(sc, *res, r)
		return nil, budgetHit, true, out, err
	}
	return next, budgetHit, false, Result{}, nil
}

// boundPrune cuts produced candidates whose admissible analytic lower
// bound (cost.Session.LowerBound, precomputed at compile time) already
// exceeds the incumbent, before the evaluation fan-out pays for them. The
// bound is a floor over every valid completion of the candidate, so a cut
// subtree provably cannot beat — or even tie — the incumbent it was compared
// against; the cut changes how much the search evaluates, never what it
// returns.
//
// Placement matters for two invariants. It runs on the driver at the step
// barrier, where sc.best.load() is a deterministic function of the candidate
// flow (every prior score has been published), keeping results bit-identical
// at any thread count. And it runs *outside* the expansion memo
// (expandStep), because memo entries are replayed across searches with
// different incumbents — an incumbent-dependent cut inside expansion would
// poison the cache. When the incumbent would cut every candidate, the one
// with the lowest bound is kept so the beam never empties on a prune that is
// about effort, not feasibility.
func (sc *search) boundPrune(ms []cand, lvl int) []cand {
	if sc.study.NoAnalytical || len(ms) < 2 {
		return ms
	}
	best := sc.best.load()
	if math.IsInf(best, 1) {
		return ms
	}
	out := ms[:0]
	cut := 0
	var keep cand // lowest-bound cut candidate, resurrected if all fall
	keepBound := math.Inf(1)
	for _, m := range ms {
		eLB, cLB := sc.sess.LowerBound(sc.maxSpatialAt(m.row, lvl))
		b := sc.opt.Objective.scoreFloor(eLB, cLB)
		if b > best {
			cut++
			if b < keepBound {
				keep, keepBound = m, b
			}
			continue
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		// Nothing written into the shared backing array yet, so keep is intact.
		out = append(out, keep)
		cut--
	}
	sc.ctr.BoundPruned.Add(uint64(cut))
	return out
}

// maxSpatialAt bounds the total spatial parallelism any completion of
// partial candidate row can reach at step lvl: levels the direction has
// already assigned contribute their actual spatial product (final — later
// steps never revisit them), unassigned levels contribute their full fanout.
// Bottom-up at step lvl has unrolled levels 0..lvl+1; top-down at step lvl
// has assigned lvl..top.
func (sc *search) maxSpatialAt(row []int, lvl int) float64 {
	a := sc.comp.a
	p := sc.comp.shape.view(row)
	ms := 1.0
	for l := range a.Levels {
		assigned := l <= lvl+1
		if sc.study.TopDown {
			assigned = l >= lvl
		}
		if assigned {
			ms *= float64(p.spatialProduct(l))
		} else {
			ms *= float64(a.Levels[l].Fanout)
		}
	}
	return ms
}

// expandStep expands every beam state at level lvl and returns one expansion
// entry per state, in state order. This is the enumerate phase's parallel
// driver, built so results are bit-identical to a serial walk at any thread
// count:
//
//   - the step's visit budget is pre-partitioned across states, then each
//     state's share across its orderings — a pure function of (budget,
//     #states, #orderings), replacing the serial `remaining -= visited`
//     chain whose shares depended on execution order;
//   - each (state, ordering) pair is an independent work unit writing into
//     its own slot; slots are merged in (state-index, ordering-index) order;
//   - counter flushes (replayExpansion), memoization, and the expansion
//     chaos hook all run on the driver goroutine in state order, so counter
//     deltas and fault-injection ordinals stay deterministic.
//
// Memoization keeps its per-state granularity and contract: keys never
// include the thread count, entries record the complete (all-orderings)
// outcome, and only uncancelled — complete — expansions are stored.
func (sc *search) expandStep(ctx context.Context, seq *sequencer, lvl int, states []state, orderings []order.Ordering) []*expandEntry {
	entries := make([]*expandEntry, len(states))
	fresh := make([]bool, len(states))
	keys := make([]string, len(states)) // of the fresh states only
	shares := partitionBudget(seq.stepBudget, len(states))
	type unitRef struct{ si, oi int }
	var units []unitRef
	var keyBuf []byte
	for si := range states {
		// Chaos hook: fired on the driver goroutine in beam order so injected
		// expansion faults keep their deterministic per-site ordinal sequence
		// regardless of worker count; the panic propagates to the resilient
		// retry path exactly as a serial expansion's would. (Worker panics
		// are re-raised here too — see runParallel.)
		faults.MustFire(faults.SiteExpand)
		keyBudget := 0
		if seq.budgeted {
			keyBudget = shares[si]
		}
		keyBuf = sc.expandKey(keyBuf[:0], lvl, keyBudget, states[si].row)
		if e := sc.comp.expansions.get(keyBuf); e != nil {
			entries[si] = e
			continue
		}
		keys[si] = string(keyBuf)
		fresh[si] = true
		for oi := range orderings {
			units = append(units, unitRef{si, oi})
		}
	}
	if len(units) > 0 {
		oShares := make([][]int, len(states))
		for si := range states {
			if fresh[si] {
				oShares[si] = partitionBudget(shares[si], len(orderings))
			}
		}
		outs := make([]unitOut, len(units))
		runParallel(sc.opt.Threads, len(units), func(wk, u int) {
			ur := units[u]
			o := seq.expandUnit(ctx, sc.ws[wk], states[ur.si].row, lvl, ur.oi, oShares[ur.si][ur.oi])
			if ur.oi == 0 && seq.stateEffort != nil {
				o.visited += seq.stateEffort(ctx, sc.ws[wk], states[ur.si].row, lvl)
			}
			outs[u] = o
		})
		for u := range units {
			ur := units[u]
			e := entries[ur.si]
			if e == nil {
				e = &expandEntry{}
				entries[ur.si] = e
			}
			o := &outs[u]
			e.rows = append(e.rows, o.rows...)
			e.keys = append(e.keys, o.keys...)
			e.visited += o.visited
			e.prunedTiling += o.prunedTiling
			e.prunedUnrolling += o.prunedUnrolling
			e.truncated = e.truncated || o.truncated
		}
	}
	// Flush counters and memoize in state order, after the barrier: a
	// cancellation mid-fan-out truncates candidate sets, so only complete
	// expansions may be stored.
	complete := anytime.FromContext(ctx) == StopComplete
	for si := range states {
		if entries[si] == nil {
			entries[si] = &expandEntry{}
		}
		sc.replayExpansion(entries[si])
		if fresh[si] && complete {
			sc.comp.expansions.put(keys[si], entries[si])
		}
	}
	return entries
}
