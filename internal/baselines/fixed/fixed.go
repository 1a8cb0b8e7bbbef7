// Package fixed provides the classic *fixed* dataflows of the accelerator
// literature — weight-stationary, output-stationary, and input-stationary —
// as mappers. A fixed dataflow pins the loop ordering (which operand stays
// resident innermost) and derives tiling/unrolling mechanically, the way
// hard-wired accelerators such as the TPU (weight-stationary) or ShiDianNao
// (output-stationary) behave. They make useful reference points: the gap
// between a fixed dataflow and a searched mapping is exactly the value a
// mapper like Sunstone adds, and the paper's intro (citing Timeloop's 19x
// energy spread across dataflows) is easy to reproduce with them.
package fixed

import (
	"context"
	"math"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/mapsearch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/unroll"
)

// Style selects which operand the dataflow keeps stationary.
type Style int

const (
	// WeightStationary keeps weights resident (TPU-style): loops over the
	// weight's non-indexing dims run innermost.
	WeightStationary Style = iota
	// OutputStationary keeps partial sums resident (ShiDianNao-style):
	// reduction loops run innermost.
	OutputStationary
	// InputStationary keeps activations resident.
	InputStationary
)

func (s Style) String() string {
	switch s {
	case OutputStationary:
		return "output-stationary"
	case InputStationary:
		return "input-stationary"
	default:
		return "weight-stationary"
	}
}

// Mapper applies one fixed dataflow style.
type Mapper struct {
	Style Style
	Model cost.Model
}

// New returns a fixed-dataflow mapper.
func New(s Style) *Mapper { return &Mapper{Style: s, Model: cost.Default} }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return m.Style.String() }

// stationaryTensor picks the operand the style keeps resident: the largest
// input for weight/input-stationary styles matching the conventional conv
// roles when present, the output for output-stationary.
func (m *Mapper) stationaryTensor(w *tensor.Workload) *tensor.Tensor {
	switch m.Style {
	case OutputStationary:
		return w.Outputs()[0]
	case InputStationary:
		if t := w.Tensor(arch.Ifmap); t != nil {
			return t
		}
		return w.Inputs()[0]
	default:
		if t := w.Tensor(arch.Weight); t != nil {
			return t
		}
		// Generic workloads: the largest input plays the weight role.
		best := w.Inputs()[0]
		full := w.FullExtents()
		for _, t := range w.Inputs() {
			if t.Footprint(full) > best.Footprint(full) {
				best = t
			}
		}
		return best
	}
}

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

// build is the one-shot construction MapContext runs: the stationary
// operand's non-indexing dims are pinned innermost at every level (so it
// stays resident), tiles are grown mechanically (largest fitting, no search
// over grow sets), and the spatial fanout is filled with the stationary
// operand's indexing dims (each PE holds a different stationary slice, the
// hallmark of these dataflows).
func (m *Mapper) build(w *tensor.Workload, a *arch.Arch) baselines.Result {
	start := time.Now()
	res := baselines.Result{}
	if mapsearch.SpatialLevels(a) > 1 {
		res.InvalidReason = "fixed dataflows defined for single-spatial-level machines"
		res.Elapsed = time.Since(start)
		return res
	}
	st := m.stationaryTensor(w)

	// Fixed order: the stationary operand's non-indexing dims innermost
	// (full residency), then its indexing dims canonically.
	idxSet := map[tensor.Dim]bool{}
	for _, d := range st.IndexingDims() {
		idxSet[d] = true
	}
	var fixedOrder []tensor.Dim
	for _, d := range w.Order {
		if !idxSet[d] {
			fixedOrder = append(fixedOrder, d)
		}
	}
	for _, d := range w.Order {
		if idxSet[d] {
			fixedOrder = append(fixedOrder, d)
		}
	}

	base := mapping.New(w, a)
	spatialLvl := mapsearch.FirstFanoutLevel(a)
	if spatialLvl >= 0 {
		// Unroll the stationary operand's indexing dims across the fanout:
		// distinct stationary slices per PE.
		us, _ := unroll.Enumerate(unroll.Space{
			Allowed:               st.IndexingDims(),
			ReductionDims:         w.ReductionDims(),
			Quota:                 w.FullExtents(),
			Fanout:                a.Levels[spatialLvl].Fanout,
			MinUtilization:        0,
			AllowSpatialReduction: a.Levels[spatialLvl].AllowSpatialReduction,
			MaxCandidates:         1,
		})
		if len(us) > 0 {
			for d, f := range us[0] {
				if f > 1 {
					base.Levels[spatialLvl].Spatial[d] = f
				}
			}
		}
	}

	// Mechanical tiling: at each bounded level, the single largest fitting
	// tile (no grow-set search — fixed hardware has fixed tile logic).
	cur := base
	for lvl := 0; lvl < len(a.Levels)-1; lvl++ {
		tiles := mapsearch.TilesAt(cur, lvl, 1)
		if len(tiles) == 0 {
			res.InvalidReason = "tile does not fit level " + a.Levels[lvl].Name
			res.Elapsed = time.Since(start)
			return res
		}
		cur = mapsearch.ApplyTile(cur, lvl, tiles[0])
	}

	// Complete with the fixed order at every level.
	top := len(a.Levels) - 1
	for l := 1; l <= top; l++ {
		cur.Levels[l].Order = append([]tensor.Dim(nil), fixedOrder...)
	}
	for d, bound := range w.Dims {
		below := cur.Extent(d, top-1)
		need := (bound + below - 1) / below
		if cur.Levels[top].T(d) < need {
			cur.Levels[top].Temporal[d] = need
		}
	}

	// A fixed dataflow evaluates exactly one mapping and that evaluation is
	// the final report: no scalar pass, no shared session.
	rep := m.Model.Evaluate(cur)
	res.Mapping = cur
	res.Report = rep
	res.Valid = rep.Valid
	res.Evaluated = 1
	res.Elapsed = time.Since(start)
	if !rep.Valid && rep.Invalid != nil {
		res.InvalidReason = rep.Invalid.Error()
	}
	if math.IsInf(rep.EDP, 1) && res.InvalidReason == "" {
		res.InvalidReason = "no legal completion"
	}
	return res
}
