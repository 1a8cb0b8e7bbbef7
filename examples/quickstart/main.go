// Quickstart: describe the paper's running 1D-convolution example, let
// Sunstone infer its reuse structure (Table III), and optimize it for a tiny
// two-level accelerator.
package main

import (
	"context"
	"fmt"
	"log"

	"sunstone"
)

func main() {
	// ofmap[k,p] = sum_{c,r} ifmap[p+r, c] * weight[k, c, r]
	//
	// The workload description is purely structural: dimensions and index
	// expressions. Win("P",1,"R",1) is the sliding-window expression p+r.
	w, err := sunstone.NewWorkload("conv1d",
		map[sunstone.Dim]int{"K": 4, "C": 4, "P": 14, "R": 3},
		&sunstone.Tensor{Name: "ifmap", Axes: []sunstone.Axis{sunstone.Win("P", 1, "R", 1), sunstone.A("C")}},
		&sunstone.Tensor{Name: "weight", Axes: []sunstone.Axis{sunstone.A("K"), sunstone.A("C"), sunstone.A("R")}},
		&sunstone.Tensor{Name: "ofmap", Axes: []sunstone.Axis{sunstone.A("K"), sunstone.A("P")}, Output: true},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Sunstone infers which loops can reuse which tensors (Table III).
	fmt.Println("inferred reuse:")
	fmt.Println(w.ReuseTable())

	// A two-level machine: a 64-word unified L1 over a single MAC, then DRAM.
	a := sunstone.Tiny(64)

	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("best mapping (outermost level first):")
	fmt.Println(res.Mapping)
	fmt.Printf("\nEDP %.4e pJ*cycle  (energy %.4e pJ, %d MACs, %.0f cycles)\n",
		res.Report.EDP, res.Report.EnergyPJ, res.Report.MACs, res.Report.Cycles)
	fmt.Printf("searched %d candidates over %d pruned loop orderings in %v\n",
		res.SpaceSize, res.OrderingsConsidered, res.Elapsed)

	fmt.Println("\nenergy breakdown:")
	fmt.Print(res.Report.BreakdownString())
}
