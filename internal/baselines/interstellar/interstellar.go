// Package interstellar reimplements the Interstellar mapper's strategy (Yang
// et al., ASPLOS 2020): a directed search whose defining heuristic presets
// the spatial unrolling to the input/output channel dimensions (C and K, the
// only two spatial dimensions it considers — Table I), falling back to other
// dimensions only when CK cannot fully utilize the PE grid (the paper's
// methodology, Section V-A).
//
// The reproduction keeps the reported failure modes: the restrictive
// unrolling sometimes excludes better mappings (poor EDP on several layers —
// e.g. solutions that reuse ofmap both temporally and spatially, against
// Sunstone's Unrolling Principle), and workloads whose C/K quotas cannot use
// the preset unrolling at all are reported invalid.
package interstellar

import (
	"context"
	"math"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/mapsearch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
	"sunstone/internal/tile"
	"sunstone/internal/unroll"
)

// Mapper is the Interstellar-style mapper.
type Mapper struct {
	Model cost.Model
	// MinPEUtil is the high-throughput threshold below which the CK preset
	// is considered unable to utilize the grid and the fallback engages.
	MinPEUtil float64
	// Sessions, when non-nil, supplies the fast-path cost session (e.g. a
	// shared Engine's compiled cache) instead of building one per call.
	Sessions baselines.SessionSource
}

// New returns a mapper with the default model and the paper's methodology.
func New() *Mapper { return &Mapper{Model: cost.Default, MinPEUtil: 0.5} }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return "INTER" }

// MapContext implements baselines.Mapper: this search is one-shot and
// sub-second, so it only short-circuits an already-done context and
// otherwise runs to completion with panic containment (see
// baselines.RunContext). The run is recorded as a telemetry span when the
// context carries a trace (see baselines.Instrument).
func (m *Mapper) MapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	return baselines.Instrument(ctx, m.Name(), func(ctx context.Context) baselines.Result {
		return baselines.RunContext(ctx, m.Name(), func() baselines.Result { return m.build(w, a) })
	})
}

// build is the one-shot construction MapContext runs.
func (m *Mapper) build(w *tensor.Workload, a *arch.Arch) baselines.Result {
	start := time.Now()
	res := baselines.Result{}
	if mapsearch.SpatialLevels(a) > 1 {
		res.InvalidReason = "architecture with multiple spatial levels not supported"
		res.Elapsed = time.Since(start)
		return res
	}
	spatialLvl := mapsearch.FirstFanoutLevel(a)

	// Preset unrolling: C and K only.
	preset := []tensor.Dim{}
	for _, d := range []tensor.Dim{"C", "K"} {
		if _, ok := w.Dims[d]; ok {
			preset = append(preset, d)
		}
	}
	if len(preset) < 2 {
		// Interstellar is DNN-specific: its space is built around the
		// input/output channel dimensions.
		res.InvalidReason = "no mapping can use the preset CK unrolling (not a C/K-channel workload)"
		res.Elapsed = time.Since(start)
		return res
	}

	unrolls := []unroll.Candidate{{}}
	if spatialLvl >= 0 {
		fan := a.Levels[spatialLvl].Fanout
		unrolls, _ = unroll.Enumerate(unroll.Space{
			Allowed:               preset,
			ReductionDims:         w.ReductionDims(),
			Quota:                 w.FullExtents(),
			Fanout:                fan,
			MinUtilization:        m.MinPEUtil,
			AllowSpatialReduction: a.Levels[spatialLvl].AllowSpatialReduction,
			MaxCandidates:         16,
		})
		if bestUtil(unrolls, fan) < m.MinPEUtil {
			// Fallback per the paper's methodology: allow other dims to
			// top up the CK preset.
			unrolls, _ = unroll.Enumerate(unroll.Space{
				ReductionDims:         w.ReductionDims(),
				Quota:                 w.FullExtents(),
				Fanout:                fan,
				MinUtilization:        m.MinPEUtil,
				AllowSpatialReduction: a.Levels[spatialLvl].AllowSpatialReduction,
				MaxCandidates:         16,
			})
		}
		if len(unrolls) == 0 {
			res.InvalidReason = "no mapping can use the preset unrolling"
			res.Elapsed = time.Since(start)
			return res
		}
	}

	orderings, _ := order.Enumerate(w)
	bestEDP := math.Inf(1)
	var bestEnergyPJ, bestCycles float64
	evaluated := 0
	base := mapping.New(w, a)
	// Fast-path evaluator: candidates only need the scalar objective.
	ev := baselines.SessionFor(m.Sessions, m.Model, w, a).NewEvaluator()
	for _, u := range unrolls {
		mu := base.Clone()
		for d, f := range u {
			if f > 1 {
				mu.Levels[spatialLvl].Spatial[d] = f
			}
		}
		for _, t1 := range mapsearch.TilesAt(mu, 0, 24) {
			m1 := mapsearch.ApplyTile(mu, 0, t1)
			tiles2 := []tile.Candidate{{}}
			if len(a.Levels) > 2 {
				tiles2 = mapsearch.TilesAt(m1, 1, 24)
			}
			for _, t2 := range tiles2 {
				m2 := mapsearch.ApplyTile(m1, 1, t2)
				for oi := range orderings {
					cand := mapsearch.CompleteWith(m2, &orderings[oi])
					edp, energyPJ, cycles, valid := ev.EvaluateEDP(cand)
					evaluated++
					if valid && edp < bestEDP {
						bestEDP = edp
						bestEnergyPJ, bestCycles = energyPJ, cycles
						res.Mapping = cand
					}
				}
			}
		}
	}
	res.Evaluated = evaluated
	res.Elapsed = time.Since(start)
	if res.Mapping == nil {
		res.InvalidReason = "no valid mapping under the preset unrolling"
		return res
	}
	res.Report = baselines.FinalReport(ev, res.Mapping, bestEDP, bestEnergyPJ, bestCycles, true)
	res.Valid = true
	return res
}

func bestUtil(cands []unroll.Candidate, fanout int) float64 {
	best := 0.0
	for _, c := range cands {
		p := 1
		for _, f := range c {
			p *= f
		}
		if u := float64(p) / float64(fanout); u > best {
			best = u
		}
	}
	return best
}
