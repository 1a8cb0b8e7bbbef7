package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

var updateFlowGolden = flag.Bool("update-flow-golden", false, "rewrite testdata/flow_golden.json from the current tree")

// flowRow is one pinned search outcome: the absolute candidate-flow counters,
// the space size, and the returned mapping's EDP and render, bit for bit.
type flowRow struct {
	Case            string `json:"case"`
	Generated       uint64 `json:"generated"`
	PrunedOrdering  uint64 `json:"pruned_ordering"`
	PrunedTiling    uint64 `json:"pruned_tiling"`
	PrunedUnrolling uint64 `json:"pruned_unrolling"`
	Deduped         uint64 `json:"deduped"`
	Evaluated       uint64 `json:"evaluated"`
	BoundPruned     uint64 `json:"bound_pruned"`
	PrunedBeam      uint64 `json:"pruned_beam"`
	SpaceSize       int    `json:"space_size"`
	EDPBits         string `json:"edp_bits"`
	Mapping         string `json:"mapping_fnv64"`
	Err             string `json:"err,omitempty"`
}

// flowPresets is the golden table's workload axis: two inference convs (one
// strided, with awkward extents that exercise padded ladders), a pointwise
// conv, two weight-update convs, two GEMMs, and the Fig. 6 tensor kernels.
func flowPresets() []*tensor.Workload {
	return []*tensor.Workload{
		workloads.Conv2D("conv3x3", 1, 16, 16, 14, 14, 3, 3, 1, 1),
		workloads.Conv2D("conv-strided", 1, 24, 3, 27, 27, 5, 5, 2, 2),
		workloads.Conv2D("conv1x1", 4, 64, 32, 14, 14, 1, 1, 1, 1),
		workloads.Conv2D("conv-wide", 1, 64, 64, 28, 28, 3, 3, 1, 1),
		workloads.Conv2DWeightUpdate("wu-small", 4, 16, 16, 14, 14, 3, 3),
		workloads.Conv2DWeightUpdate("wu-batch", 16, 32, 32, 7, 7, 3, 3),
		workloads.FC("gemm-small", 16, 256, 128),
		workloads.FC("gemm-large", 64, 512, 384),
		workloads.MTTKRP("mttkrp", 64, 32, 48, 16),
		workloads.SDDMM("sddmm", 128, 96, 64),
		workloads.TTMc("ttmc", 32, 24, 32, 8),
		workloads.MMc("mmc", 64, 48, 32, 64),
	}
}

// flowArchs is the table's machine axis: the three paper machines, plus one
// with a fanout at both level 0 and level 1 — no preset has that — so that
// step 0's two nested unrolling enumerations are pinned too.
func flowArchs() []*arch.Arch {
	dual := arch.TinySpatial(64, 4096, 8)
	dual.Name = "dual-spatial"
	dual.Levels[0].Fanout = 4
	return []*arch.Arch{arch.Conventional(), arch.Simba(), arch.DianNao(), dual}
}

// TestFlowGolden pins the absolute candidate flow of the search — not just
// the partition identity TestCounterIdentity checks — across workload kinds,
// four machines, both directions and all three intra-level strategies. The golden file was captured on the tree before the dense
// expansion rewrite; any change to a tree's visit order, a truncation rule or
// a capacity answer moves at least one of these numbers.
func TestFlowGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow table skipped in -short mode")
	}
	var rows []flowRow
	for _, w := range flowPresets() {
		for _, a := range flowArchs() {
			for _, dir := range directions {
				for _, st := range []Strategy{OrderTileUnroll, TileUnrollOrder, UnrollTileOrder} {
					row := flowRow{Case: fmt.Sprintf("%s/%s/%s/%s", w.Name, a.Name, dir.name, st)}
					// The top-down budget is cut from its 4M default so the
					// table stays a few seconds; the budget still binds on the
					// larger presets, which pins the truncation path too.
					res, err := solve(w, a, Options{Study: &Study{TopDown: dir.topDown, Strategy: st, VisitBudget: 24_000}})
					if err != nil {
						row.Err = err.Error()
					} else {
						h := fnv.New64a()
						h.Write([]byte(res.Mapping.String()))
						row.Mapping = fmt.Sprintf("%016x", h.Sum64())
						row.EDPBits = fmt.Sprintf("%016x", math.Float64bits(res.Report.EDP))
					}
					s := res.Stats
					row.Generated, row.Evaluated, row.Deduped = s.Generated, s.Evaluated, s.Deduped
					row.PrunedOrdering, row.PrunedTiling, row.PrunedUnrolling = s.PrunedOrdering, s.PrunedTiling, s.PrunedUnrolling
					row.BoundPruned, row.PrunedBeam = s.BoundPruned, s.PrunedBeam
					row.SpaceSize = res.SpaceSize
					rows = append(rows, row)
				}
			}
		}
	}
	got, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "flow_golden.json")
	if *updateFlowGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRows []flowRow
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("golden file unreadable: %v", err)
	}
	if len(wantRows) != len(rows) {
		t.Fatalf("golden has %d rows, this tree produces %d", len(wantRows), len(rows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("row %d diverged:\n got %+v\nwant %+v", i, rows[i], wantRows[i])
		}
	}
	if !t.Failed() {
		t.Errorf("golden bytes differ though every row matches (formatting drift)")
	}
}
