// Package innermost implements innermost-fit, the guaranteed-feasible mapper
// that is the resilient scheduling path's one fallback.
//
// It is not a competitor from the paper's comparison and it does not search:
// it starts from the trivially legal completion — every loop factor at the
// unbounded top level — and greedily moves factors down into the innermost
// levels while the mapping keeps validating, preferring the smallest prime
// factor of each dimension's remaining quota. The starting point is the
// minimum-footprint mapping of the problem (every tile extent below the top
// is 1), so for any workload/architecture pair that admits *some* legal
// mapping at all, this mapper returns a legal mapping; the greedy growth only
// ever replaces it with another validated mapping.
//
// That guarantee is what the retry/degradation path (core.Engine.Solve with
// Options.Retry set) leans on: when the primary search keeps failing —
// injected chaos faults, poisoned cost models, expired deadlines —
// innermost-fit still produces an audit-passing mapping. It therefore
// deliberately ignores context cancellation (construction is pure arithmetic
// and takes microseconds) and contains every cost-model panic: scoring may
// degrade to an unscored report, but a mapping is always returned.
package innermost

import (
	"context"
	"math"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// maxMoves bounds the greedy factor moves as a safety valve; each successful
// move strictly shrinks some dimension's remaining quota, so real workloads
// terminate orders of magnitude earlier.
const maxMoves = 4096

// Mapper is the guaranteed-feasible innermost-fit mapper.
type Mapper struct {
	Model cost.Model
	// Sessions, when non-nil, supplies the fast-path cost session (e.g. a
	// shared Engine's compiled cache) instead of building one per call.
	Sessions baselines.SessionSource
}

// New returns the mapper with the default cost model.
func New() *Mapper { return &Mapper{Model: cost.Default} }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return "innermost-fit" }

// MapContext implements baselines.Mapper. Unlike every other mapper it does
// not honor cancellation: its whole point is to return a legal mapping
// unconditionally, and construction is non-iterative arithmetic, so there is
// no long-running work a deadline could usefully cut short.
func (m *Mapper) MapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	return baselines.Instrument(ctx, m.Name(), func(context.Context) baselines.Result {
		return m.run(w, a)
	})
}

func (m *Mapper) run(w *tensor.Workload, a *arch.Arch) baselines.Result {
	start := time.Now()
	best := trivial(w, a)
	var errs []error
	if grown, err := safeGrow(best); err == nil {
		best = grown
	} else {
		errs = append(errs, err) // keep the trivial mapping; growth is optional
	}
	res := baselines.Result{Mapping: best, Errors: errs, Evaluated: 1}
	res.Report, res.Valid = m.score(w, a, best, &res)
	if !res.Valid && res.InvalidReason == "" {
		res.InvalidReason = "cost model rejected the mapping"
	}
	res.Elapsed = time.Since(start)
	return res
}

// score evaluates the chosen mapping with panic containment. A poisoned (or
// chaos-injected) cost model degrades the result to unscored-invalid — the
// mapping itself is still returned for the caller's own audit to judge.
func (m *Mapper) score(w *tensor.Workload, a *arch.Arch, best *mapping.Mapping, res *baselines.Result) (rep cost.Report, valid bool) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "innermost-fit scoring", best.String); e != nil {
			res.Errors = append(res.Errors, e)
			res.InvalidReason = "scoring panicked: " + e.Op
			inf := math.Inf(1)
			rep, valid = cost.Report{EDP: inf, EnergyPJ: inf, Cycles: inf, Invalid: e}, false
		}
	}()
	sess := baselines.SessionFor(m.Sessions, m.Model, w, a)
	ev := sess.NewEvaluator()
	edp, energyPJ, cycles, ok := ev.EvaluateEDP(best)
	rep = baselines.FinalReport(ev, best, edp, energyPJ, cycles, ok)
	return rep, rep.Valid
}

// trivial returns the minimum-footprint legal completion: every dimension's
// full bound as a temporal loop at the unbounded top level, extent 1
// everywhere below.
func trivial(w *tensor.Workload, a *arch.Arch) *mapping.Mapping {
	m := mapping.New(w, a)
	top := len(m.Levels) - 1
	for d, bound := range w.Dims {
		if bound > 1 {
			m.Levels[top].Temporal[d] = bound
		}
	}
	return m
}

// safeGrow runs the greedy growth with panic containment: any panic leaves
// the caller's trivial mapping in force.
func safeGrow(m *mapping.Mapping) (out *mapping.Mapping, err error) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "innermost-fit growth", m.String); e != nil {
			out, err = nil, e
		}
	}()
	return grow(m), nil
}

// grow moves loop factors from the top level down into the innermost levels,
// one smallest-prime factor at a time, keeping every intermediate state fully
// validated. Dimensions are visited in canonical workload order for
// determinism.
func grow(m *mapping.Mapping) *mapping.Mapping {
	top := len(m.Levels) - 1
	moves := 0
	for lvl := 0; lvl < top; lvl++ {
		for _, d := range m.Workload.Order {
			for moves < maxMoves {
				need := remainingNeed(m, d)
				if need <= 1 {
					break
				}
				trial := m.Clone()
				trial.Levels[lvl].Temporal[d] = trial.Levels[lvl].T(d) * smallestPrimeFactor(need)
				retop(trial)
				if trial.Validate() != nil {
					break
				}
				m = trial
				moves++
			}
		}
	}
	return m
}

// remainingNeed returns the loop factor of d still parked at the top level.
func remainingNeed(m *mapping.Mapping, d tensor.Dim) int {
	top := len(m.Levels) - 1
	below := m.Extent(d, top-1)
	return ceilDiv(m.Workload.Dims[d], below)
}

// retop recomputes the top level's temporal factors as exactly the per-
// dimension remainders not covered below it.
func retop(m *mapping.Mapping) {
	top := len(m.Levels) - 1
	for d, bound := range m.Workload.Dims {
		need := ceilDiv(bound, m.Extent(d, top-1))
		if need > 1 {
			m.Levels[top].Temporal[d] = need
		} else {
			delete(m.Levels[top].Temporal, d)
		}
	}
}

func smallestPrimeFactor(n int) int {
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			return p
		}
	}
	return n
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
