// Package dmaze reimplements the dMazeRunner mapper's search strategy (Dave
// et al., TECS 2019): a directed search over perfectly-nested convolution
// dataflows that prunes the space with user-specified *minimum utilization
// thresholds* for the on-chip memories and the PE array (Table V gives the
// paper's fast and slow threshold sets).
//
// The reproduction keeps dMazeRunner's two failure modes reported in Fig. 7:
//
//   - its minimum-utilization conditions do not generalize: on light early
//     layers no tiling reaches the required buffer utilization and the tool
//     returns *no valid mapping*;
//   - it assumes convolutions are symmetric (R == S) and rejects the
//     asymmetric 1x7/3x1 Inception layers outright.
package dmaze

import (
	"context"
	"math"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/mapsearch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
	"sunstone/internal/unroll"
)

// Config holds the utilization thresholds of Table V.
type Config struct {
	Name string
	// L1Util / L2Util are the minimum fractions of the innermost / second
	// memory level a tile must occupy.
	L1Util, L2Util float64
	// PEUtil is the minimum fraction of the spatial fanout a mapping must
	// use.
	PEUtil float64
	// AllowSpatialReduction: the fast config forbids unrolling reduction
	// dimensions; the slow config allows it.
	AllowSpatialReduction bool
}

// Fast returns the Table V fast/aggressive configuration (the repository
// default per the paper).
func Fast() Config {
	return Config{Name: "dMaze-fast", L1Util: 0.8, L2Util: 0.5, PEUtil: 0.8, AllowSpatialReduction: false}
}

// Slow returns the Table V slow/conservative configuration.
func Slow() Config {
	return Config{Name: "dMaze-slow", L1Util: 0.6, L2Util: 0.4, PEUtil: 0.8, AllowSpatialReduction: true}
}

// Mapper is the dMazeRunner-style directed-search mapper.
type Mapper struct {
	Cfg   Config
	Model cost.Model
	// Sessions, when non-nil, supplies the fast-path cost session (e.g. a
	// shared Engine's compiled cache) instead of building one per call.
	Sessions baselines.SessionSource
}

// New returns a mapper with the given configuration and the default model.
func New(cfg Config) *Mapper { return &Mapper{Cfg: cfg, Model: cost.Default} }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return m.Cfg.Name }

// MapContext implements baselines.Mapper with the anytime contract: the
// directed enumeration polls ctx between tiling candidates and, on a
// deadline or cancel, returns the best thresholded mapping found so far
// with Result.Stopped set. The run is recorded as a telemetry span when the
// context carries a trace (see baselines.Instrument).
func (m *Mapper) MapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	return baselines.Instrument(ctx, m.Name(), func(ctx context.Context) baselines.Result {
		return m.mapContext(ctx, w, a)
	})
}

func (m *Mapper) mapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	start := time.Now()
	res := baselines.Result{}
	poll := &anytime.Poller{Ctx: ctx, Every: 16}

	// dMazeRunner targets conventional accelerators with one spatial level.
	if mapsearch.SpatialLevels(a) > 1 {
		res.InvalidReason = "architecture with multiple spatial levels not supported"
		res.Elapsed = time.Since(start)
		return res
	}
	// Symmetric-convolution assumption.
	if r, s, isConv := convFilter(w); isConv && r != s {
		res.InvalidReason = "asymmetric convolution not supported (assumes R == S)"
		res.Elapsed = time.Since(start)
		return res
	}

	orderings, _ := order.Enumerate(w)
	best := baselines.Result{}
	bestEDP := math.Inf(1)
	var bestEnergyPJ, bestCycles float64
	evaluated := 0
	anyTileMetUtil := false
	stopped := anytime.Complete
	// Fast-path evaluator: the directed enumeration only needs the scalar
	// objective; the full Report is materialized once for the winner.
	ev := baselines.SessionFor(m.Sessions, m.Model, w, a).NewEvaluator()

	// Directed enumeration: unconstrained tiling trees per level filtered
	// by the utilization thresholds, spatial unrolling over dimensions that
	// need no reduction support (fast config), all trie orderings.
	spatialLvl := mapsearch.FirstFanoutLevel(a)
	base := mapping.New(w, a)

	var unrolls []unroll.Candidate
	if spatialLvl >= 0 {
		unrolls, _ = unroll.Enumerate(unroll.Space{
			ReductionDims:         w.ReductionDims(),
			Quota:                 w.FullExtents(),
			Fanout:                a.Levels[spatialLvl].Fanout,
			MinUtilization:        m.Cfg.PEUtil,
			AllowSpatialReduction: m.Cfg.AllowSpatialReduction && a.Levels[spatialLvl].AllowSpatialReduction,
			MaxCandidates:         16,
		})
	} else {
		unrolls = []unroll.Candidate{{}}
	}

search:
	for _, u := range unrolls {
		mu := base.Clone()
		for d, f := range u {
			if f > 1 {
				mu.Levels[spatialLvl].Spatial[d] = f
			}
		}
		if float64(productOf(u))/float64(mapsearch.TotalFanout(a)) < m.Cfg.PEUtil {
			continue
		}
		// L1 tiles: grow all dims, keep maximal fitting, then threshold.
		l1Tiles := mapsearch.TilesAt(mu, 0, 24)
		for _, t1 := range l1Tiles {
			m1 := mapsearch.ApplyTile(mu, 0, t1)
			if util := m1.Utilization(0, 0); util < m.Cfg.L1Util {
				evaluated++
				continue
			}
			anyTileMetUtil = true
			l2Tiles := mapsearch.TilesAt(m1, 1, 24)
			for _, t2 := range l2Tiles {
				m2 := mapsearch.ApplyTile(m1, 1, t2)
				if len(a.Levels) > 2 && a.Levels[1].Buffers[0].Bytes > 0 {
					if util := m2.Utilization(1, 0); util < m.Cfg.L2Util {
						evaluated++
						continue
					}
				}
				for oi := range orderings {
					if r := poll.Stop(); r != anytime.Complete {
						stopped = r
						break search
					}
					cand := mapsearch.CompleteWith(m2, &orderings[oi])
					edp, energyPJ, cycles, valid := ev.EvaluateEDP(cand)
					evaluated++
					if valid && edp < bestEDP {
						bestEDP = edp
						bestEnergyPJ, bestCycles = energyPJ, cycles
						best.Mapping = cand
					}
				}
			}
		}
	}

	best.Evaluated = evaluated
	best.Elapsed = time.Since(start)
	best.Stopped = stopped
	if best.Mapping == nil {
		best.InvalidReason = "no mapping meets the minimum utilization constraints"
		if !anyTileMetUtil {
			best.InvalidReason = "no tiling reaches the minimum buffer utilization"
		}
		if best.Stopped != anytime.Complete {
			best.InvalidReason = "stopped (" + best.Stopped.String() + ") before any mapping met the utilization constraints"
		}
		return best
	}
	best.Report = baselines.FinalReport(ev, best.Mapping, bestEDP, bestEnergyPJ, bestCycles, true)
	best.Valid = true
	return best
}

// convFilter detects the R/S filter dims of a convolution workload.
func convFilter(w *tensor.Workload) (r, s int, isConv bool) {
	rr, okR := w.Dims["R"]
	ss, okS := w.Dims["S"]
	if okR && okS {
		return rr, ss, true
	}
	return 0, 0, false
}

func productOf(c unroll.Candidate) int {
	p := 1
	for _, f := range c {
		p *= f
	}
	return p
}
