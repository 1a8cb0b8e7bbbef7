package core

import (
	"context"
	"math/rand"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// feasible is the map-based capacity check the search used before the
// fitChecker became its only oracle: whether the partial mapping's current
// extents fit every bounded buffer at levels [from, top). It is kept here as
// the slow reference TestFitCheckerMatchesFeasible compares against.
func feasible(m *mapping.Mapping, from int) bool {
	top := len(m.Levels) - 1
	for l := from; l < top; l++ {
		if !levelFeasible(m, l, m.Extents(l)) {
			return false
		}
	}
	return true
}

func levelFeasible(m *mapping.Mapping, l int, ext map[tensor.Dim]int) bool {
	al := &m.Arch.Levels[l]
	for bi := range al.Buffers {
		buf := &al.Buffers[bi]
		if buf.Bytes == 0 {
			continue
		}
		var usedBits int64
		for _, t := range m.Workload.Tensors {
			if buf.Holds(t.Name) {
				usedBits += int64(t.Footprint(ext)) * int64(m.Arch.Bits(t.Name))
			}
		}
		if usedBits > buf.Bytes*8 {
			return false
		}
	}
	return true
}

// remainingExtents and partialRemainderCanFit are the map-based top-down
// remainder probe, kept as the reference for the LevelFits call in
// topWalk.rec: assigned dims use their chosen factors, unassigned dims
// optimistically their full quota.
func remainingExtents(m *mapping.Mapping, lvl int) map[tensor.Dim]int {
	ext := make(map[tensor.Dim]int, len(m.Workload.Dims))
	for d, bound := range m.Workload.Dims {
		above := 1
		for l := lvl + 1; l < len(m.Levels); l++ {
			above *= m.Levels[l].T(d) * m.Levels[l].S(d)
		}
		ext[d] = ceilDiv(bound, above)
	}
	return ext
}

func partialRemainderCanFit(m2 *mapping.Mapping, m int, cur map[tensor.Dim]int, rest []tensor.Dim, quota map[tensor.Dim]int) bool {
	ext := remainingExtents(m2, m-1)
	for d, f := range cur {
		ext[d] = ceilDiv(ext[d], f)
	}
	for _, d := range rest {
		ext[d] = ceilDiv(ext[d], quota[d])
	}
	return levelFeasible(m2, m-1, ext)
}

// shrunk returns a with buffer bi of level lvl reduced by the given bytes,
// copied the way SolveNetworkFused derives a member's architecture when it
// reserves a pinned handoff out of a buffer.
func shrunk(a *arch.Arch, lvl, bi int, bytes int64) *arch.Arch {
	da := *a
	da.Levels = append([]arch.Level(nil), a.Levels...)
	da.Levels[lvl].Buffers = append([]arch.Buffer(nil), da.Levels[lvl].Buffers...)
	da.Levels[lvl].Buffers[bi].Bytes -= bytes
	return &da
}

// TestFitCheckerMatchesFeasible is the one-oracle property: on random partial
// mappings — 2- to 4-level architectures, per-datatype and bypassing buffers
// (Simba, DianNao), residency-shrunk derived architectures — every answer
// the fitChecker gives on the four probe shapes the search uses (tiling-tree
// node, residual-fill step, unrolling post-filter, top-down remainder) equals
// the map-based check on a Mapping with the probe written in.
func TestFitCheckerMatchesFeasible(t *testing.T) {
	conv := workloads.Conv2D("conv", 2, 32, 16, 14, 14, 3, 3, 2, 1)
	problems := []struct {
		w *tensor.Workload
		a *arch.Arch
	}{
		{workloads.Conv1D("conv1d", 8, 8, 56, 3), arch.Tiny(256)},
		{workloads.Conv1D("conv1d", 8, 8, 56, 3), arch.TinySpatial(64, 2048, 8)},
		{conv, arch.Conventional()},
		{conv, arch.Simba()},
		{conv, arch.DianNao()},
		{workloads.MTTKRP("mttkrp", 64, 32, 48, 16), arch.Conventional()},
		{workloads.FC("gemm", 64, 512, 384), arch.Simba()},
		{workloads.TTMc("ttmc", 32, 24, 32, 8), shrunk(arch.Conventional(), 1, 0, 3_000*1024)},
		{conv, shrunk(arch.Simba(), 2, 0, 500*1024)},
	}
	factors := []int{1, 1, 1, 2, 2, 3, 4, 7, 8, 16}
	rng := rand.New(rand.NewSource(3))
	pick := func() int { return factors[rng.Intn(len(factors))] }
	for _, pr := range problems {
		comp, err := Compile(pr.w, pr.a, cost.Model{})
		if err != nil {
			t.Fatal(err)
		}
		sc := newSearch(comp, Options{Threads: 1})
		ws := sc.ws[0]
		dims, nd, top := pr.w.Order, len(pr.w.Order), len(pr.a.Levels)-1
		answers := [2]int{}
		for trial := 0; trial < 300; trial++ {
			m := mapping.New(pr.w, pr.a)
			for l := range m.Levels {
				for _, d := range dims {
					if f := pick(); f > 1 && rng.Intn(2) == 0 {
						m.Levels[l].Temporal[d] = f
					}
					if f := pick(); f > 1 && rng.Intn(4) == 0 {
						m.Levels[l].Spatial[d] = f
					}
				}
			}
			ws.load(sc.comp.rowOf(sc.orders, m))
			check := func(shape string, got, want bool) {
				t.Helper()
				if got != want {
					t.Fatalf("%s on %s, %s probe: fitChecker %v, map-based %v\n%s", pr.w.Name, pr.a.Name, shape, got, want, m)
				}
				if got {
					answers[1]++
				} else {
					answers[0]++
				}
			}

			// Tiling-tree node and residual-fill step: level l's temporal row
			// varies, a few dimensions at a time, over one reset.
			l := rng.Intn(top)
			ws.fc.reset(&ws.p, l, false)
			for probe := 0; probe < 4; probe++ {
				row := append([]int(nil), ws.p.trow(l)...)
				mm := m.Clone()
				for k := 0; k <= probe; k++ {
					i := rng.Intn(nd)
					row[i] = pick()
					mm.Levels[l].Temporal[dims[i]] = row[i]
				}
				check("tile/fill", ws.fc.fits(row), feasible(mm, l))
			}

			// Unrolling post-filter: level lvl's spatial row varies; lvl may
			// be the top level, where nothing is checked.
			lvl := rng.Intn(top + 1)
			ws.fc.reset(&ws.p, lvl, true)
			for probe := 0; probe < 3; probe++ {
				row := append([]int(nil), ws.p.srow(lvl)...)
				mu := m.Clone()
				for k := 0; k <= probe; k++ {
					i := rng.Intn(nd)
					row[i] = pick()
					mu.Levels[lvl].Spatial[dims[i]] = row[i]
				}
				check("unroll", ws.fc.fits(row), feasible(mu, lvl))
			}

			// Top-down remainder: dims[:assigned] carry chosen factors, the
			// rest their full quota; level lv-1 must hold what is left.
			lv := 1 + rng.Intn(top)
			assigned := rng.Intn(nd + 1)
			cur, quota := map[tensor.Dim]int{}, map[tensor.Dim]int{}
			ext := make([]int, nd)
			for i, d := range dims {
				quota[d] = pick()
				below := ceilDiv(pr.w.Dims[d], ws.p.extent(i, lv, ws.p.nl))
				if i < assigned {
					cur[d] = pick()
					ext[i] = ceilDiv(below, cur[d])
				} else {
					ext[i] = ceilDiv(below, quota[d])
				}
			}
			check("top-down", comp.sess.LevelFits(lv-1, ext), partialRemainderCanFit(m, lv, cur, dims[assigned:], quota))
		}
		if answers[0] == 0 || answers[1] == 0 {
			t.Errorf("%s on %s: probes all answered alike (%d no, %d yes) — the generator does not straddle capacity", pr.w.Name, pr.a.Name, answers[0], answers[1])
		}
	}
}

// TestColdSolveAllocCeiling pins the allocation win of the dense search: a
// single-threaded cold search of a ResNet-sized conv on the conventional
// machine made 106,981 allocations while candidates were cloned Mappings,
// 10,713 once expansion ran on integer state, and 2,662 with beam states,
// completions, dedupe keys, tie-breaks and polish moves on factor rows. The
// ceiling leaves a fifth of headroom over that, so a regression that puts a
// map or a string back on a per-candidate path fails here long before it
// shows in wall time.
func TestColdSolveAllocCeiling(t *testing.T) {
	w := conv2D(t, 1, 64, 64, 56, 56, 3, 3)
	a := arch.Conventional()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := solve(w, a, Options{Threads: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 3_200
	if allocs > ceiling {
		t.Errorf("cold solve made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestWarmSolveAllocCeiling is the same pin for the job a long-lived Engine
// mostly runs: the second solve of that conv on one Engine, which replays the
// memoized expansions and so spends its time between them — 5,260 allocations
// with Mappings as the currency, 771 on rows, 346 once the analytic seed (405
// of the 771) was compiled with the problem and the incumbent held a row.
func TestWarmSolveAllocCeiling(t *testing.T) {
	p := Problem{Workload: conv2D(t, 1, 64, 64, 56, 56, 3, 3), Arch: arch.Conventional()}
	eng := NewEngine(0)
	warm := func() {
		if _, err := eng.Solve(context.Background(), p, Options{Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	const ceiling = 450
	if allocs := testing.AllocsPerRun(5, warm); allocs > ceiling {
		t.Errorf("warm solve made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
