package sunstone_test

import (
	"context"
	"fmt"

	"sunstone"
)

// DefaultOptions spells out the configuration a zero Options value resolves
// to; start from it when you want the defaults with one knob changed.
func ExampleDefaultOptions() {
	opt := sunstone.DefaultOptions()
	opt.BeamWidth = 48 // search twice as wide as the default

	fmt.Println("objective:", opt.Objective)
	fmt.Println("beam width:", opt.BeamWidth)
	// A zero Options value is filled from the same defaults before any
	// search runs, so Options{} and DefaultOptions() behave identically.
	fmt.Println("zero-value beam width resolves to:", sunstone.DefaultOptions().BeamWidth)
	// Output:
	// objective: EDP
	// beam width: 48
	// zero-value beam width resolves to: 24
}

// An Engine caches per-problem compilation artifacts across calls: repeated
// shapes compile once and later searches reuse the warm tables and memoized
// expansions (cold ~90ms vs warm ~9ms for a ResNet-18 conv layer on the
// conventional preset — see BenchmarkEngineReuse). Results are identical to
// the package-level Solve; only the speed differs.
func ExampleNewEngine() {
	eng := sunstone.NewEngine() // goroutine-safe; share one per process

	w := sunstone.Conv1D("layer", 4, 4, 14, 3)
	a := sunstone.Tiny(64)
	cold, err := eng.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Same shape again — served from the compilation cache.
	warm, err := eng.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	s := eng.Stats()
	fmt.Println("compiles:", s.Compiles)
	fmt.Println("cache hits:", s.Hits)
	fmt.Println("same result:", cold.Report.EDP == warm.Report.EDP)
	// Output:
	// compiles: 1
	// cache hits: 1
	// same result: true
}
