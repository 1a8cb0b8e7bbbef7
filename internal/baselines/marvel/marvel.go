// Package marvel reimplements the Marvel mapper's strategy (Chatarasi et
// al., 2020): a *decoupled* two-step search that first chooses the off-chip
// (DRAM-level) tiling to minimize DRAM traffic assuming ideal on-chip reuse,
// and only then optimizes the on-chip mapping under a high-buffer-
// utilization pruning — the "decoupled off-chip and on-chip, high buffer
// utilization" row of Table I.
//
// Marvel is not open source, so the paper could not compare mapping quality
// against it (Table I: "not open source"); this reimplementation is built
// from the strategy described in the paper's Table I and related-work
// discussion, and lets the comparison be run anyway. The decoupling is the
// interesting failure mode: the off-chip step commits to DRAM loop bounds
// before knowing what the on-chip levels can actually hold, so its choice
// can be suboptimal for the coupled problem.
package marvel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/mapsearch"
	"sunstone/internal/cost"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
	"sunstone/internal/unroll"
)

// Mapper is the Marvel-style decoupled mapper.
type Mapper struct {
	Model cost.Model
	// MinUtil is the on-chip high-buffer-utilization threshold.
	MinUtil float64
	// OffChipCandidates bounds the DRAM tilings carried into step two.
	OffChipCandidates int
	// Sessions, when non-nil, supplies the fast-path cost session (e.g. a
	// shared Engine's compiled cache) instead of building one per call.
	Sessions baselines.SessionSource
}

// New returns a mapper with the published strategy's defaults.
func New() *Mapper {
	return &Mapper{Model: cost.Default, MinUtil: 0.5, OffChipCandidates: 8}
}

// UseSessions injects a shared session source (see baselines.SessionFor).
func (m *Mapper) UseSessions(src baselines.SessionSource) { m.Sessions = src }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return "Marvel" }

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
	top := len(a.Levels) - 1
	evaluated := 0

	// Step 1 — off-chip: choose DRAM loop bounds minimizing DRAM traffic
	// under the ideal-reuse assumption (each tensor crosses the DRAM
	// boundary once per pass over its indexing loops; on-chip reuse is
	// assumed perfect, i.e. the on-chip tile is whatever remains).
	type offChip struct {
		factors map[tensor.Dim]int
		traffic float64
	}
	// A bounded best-K list keeps the cross-product enumeration cheap.
	var cands []offChip
	dims := w.Order
	ladders := make([][]int, len(dims))
	for i, d := range dims {
		ladders[i] = factor.Ladder(w.Dims[d], 4)
	}
	insert := func(fs map[tensor.Dim]int, traffic float64) {
		cp := make(map[tensor.Dim]int, len(fs))
		for d, f := range fs {
			cp[d] = f
		}
		cands = append(cands, offChip{factors: cp, traffic: traffic})
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].traffic != cands[j].traffic {
				return cands[i].traffic < cands[j].traffic
			}
			return factorKey(cands[i].factors) < factorKey(cands[j].factors)
		})
		if len(cands) > m.OffChipCandidates {
			cands = cands[:m.OffChipCandidates]
		}
	}
	cur := map[tensor.Dim]int{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(dims) {
			evaluated++
			// Remaining on-chip tile must plausibly fit the total on-chip
			// capacity (the decoupling's only coupling).
			if !onChipPlausible(w, a, cur) {
				return
			}
			traffic := dramTraffic(w, cur)
			if len(cands) < m.OffChipCandidates || traffic < cands[len(cands)-1].traffic {
				insert(cur, traffic)
			}
			return
		}
		for _, f := range ladders[i] {
			cur[dims[i]] = f
			rec(i + 1)
		}
	}
	rec(0)
	if len(cands) == 0 {
		res.InvalidReason = "no off-chip tiling leaves a plausible on-chip tile"
		res.Elapsed = time.Since(start)
		return res
	}

	// Step 2 — on-chip: for each retained off-chip tiling, unroll the
	// spatial level and tile the on-chip memories with high-utilization
	// pruning; orderings from the trie.
	orderings, _ := order.Enumerate(w)
	spatialLvl := mapsearch.FirstFanoutLevel(a)
	bestEDP := math.Inf(1)
	var bestEnergyPJ, bestCycles float64
	// Fast-path evaluator: the on-chip enumeration only needs the scalar
	// objective; the winner's full Report is materialized at the end.
	ev := baselines.SessionFor(m.Sessions, m.Model, w, a).NewEvaluator()
	for _, oc := range cands {
		base := mapping.New(w, a)
		for d, f := range oc.factors {
			if f > 1 {
				base.Levels[top].Temporal[d] = f
			}
		}
		spatials := []*mapping.Mapping{base}
		if spatialLvl >= 0 {
			spatials = nil
			quota := make(map[tensor.Dim]int, len(w.Dims))
			for d, bound := range w.Dims {
				quota[d] = ceilDiv(bound, base.Levels[top].T(d))
			}
			us, _ := unroll.Enumerate(unroll.Space{
				ReductionDims:         w.ReductionDims(),
				Quota:                 quota,
				Fanout:                a.Levels[spatialLvl].Fanout,
				MinUtilization:        m.MinUtil,
				AllowSpatialReduction: a.Levels[spatialLvl].AllowSpatialReduction,
				MaxCandidates:         8,
			})
			for _, u := range us {
				mu := base.Clone()
				for d, f := range u {
					if f > 1 {
						mu.Levels[spatialLvl].Spatial[d] = f
					}
				}
				spatials = append(spatials, mu)
			}
		}
		for _, mu := range spatials {
			for _, t1 := range mapsearch.TilesAt(mu, 0, 12) {
				m1 := mapsearch.ApplyTile(mu, 0, t1)
				if m1.Utilization(0, 0) < m.MinUtil && a.Levels[0].Buffers[0].Bytes > 0 {
					evaluated++
					continue
				}
				for oi := range orderings {
					cand := mapsearch.CompleteWith(m1, &orderings[oi])
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
		res.InvalidReason = "no on-chip mapping meets the utilization threshold"
		return res
	}
	res.Report = baselines.FinalReport(ev, res.Mapping, bestEDP, bestEnergyPJ, bestCycles, true)
	res.Valid = true
	return res
}

// dramTraffic estimates words crossing the DRAM boundary for the given DRAM
// loop bounds under ideal on-chip reuse: each tensor's traffic is its full
// size times the product of the DRAM bounds of its non-indexing dims (the
// passes that cannot reuse it without on-chip help... idealized to 1) —
// i.e., simply passes(t) x remaining tile, the off-chip analogue of Eq. (4).
func dramTraffic(w *tensor.Workload, dram map[tensor.Dim]int) float64 {
	total := 0.0
	for _, t := range w.Tensors {
		tile := 1.0
		ext := map[tensor.Dim]int{}
		for d, bound := range w.Dims {
			f := dram[d]
			if f < 1 {
				f = 1
			}
			ext[d] = ceilDiv(bound, f)
		}
		tile = float64(t.Footprint(ext))
		passes := 1.0
		for d, f := range dram {
			if f > 1 && t.Indexing(d) {
				passes *= float64(f)
			}
		}
		total += passes * tile
	}
	return total
}

// onChipPlausible checks that the post-DRAM remainder fits the summed
// on-chip capacity (in the workload's narrowest word width) — the minimal
// coupling the decoupled formulation keeps.
func onChipPlausible(w *tensor.Workload, a *arch.Arch, dram map[tensor.Dim]int) bool {
	ext := map[tensor.Dim]int{}
	for d, bound := range w.Dims {
		f := dram[d]
		if f < 1 {
			f = 1
		}
		ext[d] = ceilDiv(bound, f)
	}
	var needBits, capBits int64
	for _, t := range w.Tensors {
		needBits += int64(t.Footprint(ext)) * int64(a.Bits(t.Name))
	}
	for l := 0; l < len(a.Levels)-1; l++ {
		for bi := range a.Levels[l].Buffers {
			capBits += a.Levels[l].Buffers[bi].Bytes * 8
		}
	}
	return needBits <= capBits
}

func factorKey(fs map[tensor.Dim]int) string {
	keys := make([]string, 0, len(fs))
	for d, f := range fs {
		if f > 1 {
			keys = append(keys, fmt.Sprintf("%s:%d", d, f))
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ","
	}
	return out
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
