package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/tensor"
)

// TestParallelParity pins the intra-search parallelism contract: a search's
// outcome — mapping, full Report, SpaceSize, and the complete counter
// partition — is bit-identical at every thread count. Only the evaluator
// memo-cache hit/miss *split* is exempt (two workers racing the same key can
// both miss; the sum — one lookup per evaluation — is pinned instead).
//
// The tiny subtests double as the `make parallel-smoke` target (run under
// -race at -cpu 1,4); the preset subtests cover the three paper machines in
// both directions.
func TestParallelParity(t *testing.T) {
	combos := []struct {
		name string
		w    *tensor.Workload
		a    *arch.Arch
	}{
		{"tiny", conv1D(t, 8, 8, 56, 3), arch.Tiny(256)},
		{"conventional", conv2D(t, 1, 16, 16, 14, 14, 3, 3), arch.Conventional()},
		{"simba", conv2D(t, 1, 16, 16, 14, 14, 3, 3), arch.Simba()},
		{"diannao", conv2D(t, 1, 16, 16, 14, 14, 3, 3), arch.DianNao()},
	}
	for _, cb := range combos {
		for _, dir := range directions {
			t.Run(fmt.Sprintf("%s/%s", cb.name, dir.name), func(t *testing.T) {
				serial, err := solve(cb.w, cb.a, Options{Study: &Study{TopDown: dir.topDown}, Threads: 1})
				if err != nil {
					t.Fatalf("threads=1: %v", err)
				}
				parallel, err := solve(cb.w, cb.a, Options{Study: &Study{TopDown: dir.topDown}, Threads: 8})
				if err != nil {
					t.Fatalf("threads=8: %v", err)
				}
				assertParity(t, serial, parallel)
			})
		}
	}
}

// assertParity fails unless the two results are bit-identical up to the
// documented exemptions (Elapsed; the eval-cache hit/miss split).
func assertParity(t *testing.T, serial, parallel Result) {
	t.Helper()
	if len(serial.CandidateErrors) != 0 || len(parallel.CandidateErrors) != 0 {
		t.Fatalf("unexpected candidate errors: serial %v, parallel %v", serial.CandidateErrors, parallel.CandidateErrors)
	}
	if got, want := parallel.Mapping.String(), serial.Mapping.String(); got != want {
		t.Errorf("mapping diverged:\nthreads=1:\n%s\nthreads=8:\n%s", want, got)
	}
	if !reflect.DeepEqual(serial.Report, parallel.Report) {
		t.Errorf("report diverged:\nthreads=1: %+v\nthreads=8: %+v", serial.Report, parallel.Report)
	}
	if serial.SpaceSize != parallel.SpaceSize {
		t.Errorf("SpaceSize: threads=1 %d, threads=8 %d", serial.SpaceSize, parallel.SpaceSize)
	}
	if serial.OrderingsConsidered != parallel.OrderingsConsidered {
		t.Errorf("OrderingsConsidered: threads=1 %d, threads=8 %d", serial.OrderingsConsidered, parallel.OrderingsConsidered)
	}
	if serial.Stopped != parallel.Stopped {
		t.Errorf("Stopped: threads=1 %v, threads=8 %v", serial.Stopped, parallel.Stopped)
	}
	ss, ps := serial.Stats, parallel.Stats
	if sum, psum := ss.EvalCacheHits+ss.EvalCacheMisses, ps.EvalCacheHits+ps.EvalCacheMisses; sum != psum {
		t.Errorf("eval-cache lookups: threads=1 %d, threads=8 %d", sum, psum)
	}
	ss.EvalCacheHits, ss.EvalCacheMisses = 0, 0
	ps.EvalCacheHits, ps.EvalCacheMisses = 0, 0
	if ss != ps {
		t.Errorf("counter partition diverged:\nthreads=1: %+v\nthreads=8: %+v", ss, ps)
	}
	if got := ps.Pruned() + ps.Deduped + ps.Evaluated + ps.Skipped; got != ps.Generated {
		t.Errorf("flow identity broken at threads=8: generated %d != pruned+deduped+evaluated+skipped %d", ps.Generated, got)
	}
}

// TestExpandCacheFirstWriteWins pins the expansion memo's concurrency
// contract: racing writers of one key may each build their own (identical)
// entry, but exactly one is retained — the first to take the lock — and the
// byte budget is charged exactly once. Everyone reads the same pointer
// afterwards.
func TestExpandCacheFirstWriteWins(t *testing.T) {
	c := expandCache{m: make(map[string]*expandEntry)}
	const writers = 16
	entries := make([]*expandEntry, writers)
	for i := range entries {
		entries[i] = &expandEntry{rows: make([]int, 30), keys: make([]cost.Key, 3), visited: 7}
	}
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < writers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			c.put("key", entries[i])
		}(i)
	}
	start.Done()
	done.Wait()

	got := c.get([]byte("key"))
	if got == nil {
		t.Fatal("no entry retained")
	}
	won := -1
	for i, e := range entries {
		if got == e {
			won = i
			break
		}
	}
	if won < 0 {
		t.Fatal("retained entry is not one of the written entries")
	}
	if again := c.get([]byte("key")); again != got {
		t.Fatalf("get is unstable: %p then %p", got, again)
	}
	if want := got.size("key"); c.bytes != want {
		t.Fatalf("charged %d bytes, want the entry's size once (%d)", c.bytes, want)
	}
	// Later writers must not displace the winner.
	c.put("key", &expandEntry{rows: make([]int, 10), keys: make([]cost.Key, 1)})
	if c.get([]byte("key")) != got || c.bytes != got.size("key") {
		t.Fatal("a later write displaced the first")
	}
}

// TestRunParallelPanicPropagates pins the pool's panic contract: a panic in
// a unit re-raises on the caller goroutine (the chaos-injection sites and
// the resilient retry loop rely on it), at every pool size.
func TestRunParallelPanicPropagates(t *testing.T) {
	for _, threads := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("threads=%d: recovered %v, want boom", threads, r)
				}
			}()
			runParallel(threads, 8, func(_, unit int) {
				if unit == 3 {
					panic("boom")
				}
			})
			t.Errorf("threads=%d: runParallel returned instead of panicking", threads)
		}()
	}
}

// TestRunParallelCoversAllUnits checks every unit runs exactly once and
// worker ids stay within the pool bound (they index per-worker scratch).
func TestRunParallelCoversAllUnits(t *testing.T) {
	for _, threads := range []int{1, 3, 16} {
		const n = 100
		var mu sync.Mutex
		ran := make([]int, n)
		runParallel(threads, n, func(wk, unit int) {
			if wk < 0 || wk >= threads {
				t.Errorf("worker id %d out of range [0,%d)", wk, threads)
			}
			mu.Lock()
			ran[unit]++
			mu.Unlock()
		})
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("threads=%d: unit %d ran %d times", threads, i, c)
			}
		}
	}
}

// TestPartitionBudget pins the deterministic budget pre-partition: shares
// sum to the total, differ by at most one, depend only on (total, n), and an
// unbounded budget stays unbounded.
func TestPartitionBudget(t *testing.T) {
	for _, tc := range []struct{ total, n int }{{10, 3}, {3, 10}, {1, 4}, {1000, 7}} {
		shares := partitionBudget(tc.total, tc.n)
		if len(shares) != tc.n {
			t.Fatalf("partitionBudget(%d,%d): %d shares", tc.total, tc.n, len(shares))
		}
		sum, min, max := 0, math.MaxInt, 0
		for _, s := range shares {
			sum += s
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Errorf("partitionBudget(%d,%d): uneven shares %v", tc.total, tc.n, shares)
		}
		if want := tc.total; tc.total >= tc.n && sum != want {
			t.Errorf("partitionBudget(%d,%d): sum %d, want %d", tc.total, tc.n, sum, want)
		}
		if min < 1 {
			t.Errorf("partitionBudget(%d,%d): share below 1: %v", tc.total, tc.n, shares)
		}
	}
	for _, s := range partitionBudget(math.MaxInt, 5) {
		if s != math.MaxInt {
			t.Fatalf("unbounded budget partitioned to %d", s)
		}
	}
}
