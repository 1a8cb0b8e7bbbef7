package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sunstone"
	"sunstone/internal/obs"
)

// libResult is what one library op returned, kept for the checks that run
// after the clock stops.
type libResult struct {
	edp      float64
	result   sunstone.Result          // single-layer rows
	schedule sunstone.NetworkSchedule // network rows
	engine   sunstone.EngineStats     // the op's Engine, after the call
}

// searchStats sums the search counters of every solve the op made.
func (r *libResult) searchStats() obs.SearchStats {
	if r.result.Mapping != nil {
		return r.result.Stats
	}
	var sum obs.SearchStats
	for i := range r.schedule.Layers {
		addSearch(&sum, r.schedule.Layers[i].Result.Stats)
	}
	return sum
}

func addSearch(sum *obs.SearchStats, st obs.SearchStats) {
	sum.Generated += st.Generated
	sum.Evaluated += st.Evaluated
	sum.Deduped += st.Deduped
	sum.Skipped += st.Skipped
	sum.PrunedOrdering += st.PrunedOrdering
	sum.PrunedTiling += st.PrunedTiling
	sum.PrunedUnrolling += st.PrunedUnrolling
	sum.BoundPruned += st.BoundPruned
	sum.PrunedBound += st.PrunedBound
	sum.PrunedBeam += st.PrunedBeam
	sum.EvalCacheHits += st.EvalCacheHits
	sum.EvalCacheMisses += st.EvalCacheMisses
}

// runLibOp runs one row through the entry point a library caller uses — a
// fresh Engine, default Options, no Progress, no program-side trace unless
// ctx carries one — and times the call.
func runLibOp(ctx context.Context, r *row) (libResult, time.Duration, error) {
	a := machine(r.machine)
	eng := sunstone.NewEngine()
	if r.net == nil {
		t0 := time.Now()
		res, err := eng.Solve(ctx, sunstone.Problem{Workload: r.w, Arch: a}, sunstone.Options{})
		d := time.Since(t0)
		return libResult{edp: res.Report.EDP, result: res, engine: eng.Stats()}, d, err
	}
	fuse := sunstone.FusionOptions{MaxGroup: 1}
	if r.fused {
		fuse.MaxGroup = 0 // library default
	}
	t0 := time.Now()
	sched, err := eng.ScheduleNetworkFused(ctx, r.net, a, sunstone.NetworkOptions{}, fuse)
	d := time.Since(t0)
	return libResult{edp: sched.EDP, schedule: sched, engine: eng.Stats()}, d, err
}

// runLibrary executes the plan: every round runs every row once, in the
// round's seeded order, with one caller (a closed loop of one). Each op's
// result is checked right after its clock stops, so no check time lands in
// a latency and the results need not be retained.
func runLibrary(ctx context.Context, p *libPlan, tr *tracer) *outcome {
	o := &outcome{}
	firstEDP := make([]float64, len(p.rows))
	for _, round := range p.Rounds {
		for _, ri := range round {
			r := &p.rows[ri]
			op := tr.newOp("op " + r.name)
			call := tr.begin(op, libEntryPoint(r), 1)
			res, d, err := runLibOp(ctx, r)
			tr.end(call)
			ms := float64(d) / float64(time.Millisecond)
			s := sample{row: r.name, ackMS: ms, firstMS: ms, termMS: ms, edp: res.edp,
				search: res.searchStats(), engine: res.engine}
			o.timedSec += d.Seconds()
			tr.call(op, "bench.verify", func() {
				switch {
				case err != nil:
					s.failedWhy = err.Error()
				case firstEDP[ri] != 0 && math.Float64bits(firstEDP[ri]) != math.Float64bits(res.edp):
					s.failedWhy = fmt.Sprintf("EDP %v differs from an earlier round's %v", res.edp, firstEDP[ri])
				default:
					s.failedWhy = checkLibResult(r, &res)
				}
			})
			if firstEDP[ri] == 0 {
				firstEDP[ri] = res.edp
			}
			tr.end(op)
			o.samples = append(o.samples, s)
		}
	}
	return o
}

func libEntryPoint(r *row) string {
	if r.net == nil {
		return "core.Engine.Solve"
	}
	return "core.Engine.SolveNetworkFused"
}

// setupLibrary is a library workload's set-up: validate every row, then run
// each once with the result discarded, so the heap has grown to its working
// size and the first timed round is no slower than the last.
func setupLibrary(ctx context.Context, p *libPlan) error {
	for i := range p.rows {
		if err := validateRow(&p.rows[i]); err != nil {
			return err
		}
		if _, _, err := runLibOp(ctx, &p.rows[i]); err != nil {
			return fmt.Errorf("warm %s: %w", p.rows[i].name, err)
		}
	}
	return nil
}

func validateRow(r *row) error {
	a := machine(r.machine)
	if r.net != nil {
		if err := r.net.Validate(); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		return a.Validate()
	}
	if err := (sunstone.Problem{Workload: r.w, Arch: a}).Validate(); err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	return nil
}
