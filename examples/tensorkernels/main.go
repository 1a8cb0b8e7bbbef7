// Tensor kernels beyond DNNs: schedule MTTKRP (CP decomposition), TTMc
// (Tucker decomposition), and SDDMM (alternating least squares) on the
// conventional accelerator — the Fig. 6 scenario — plus a custom
// user-defined contraction, demonstrating the versatility claim: the same
// algebra-derived pipeline handles any freely-reorderable dense loop nest.
package main

import (
	"context"
	"fmt"
	"log"

	"sunstone"
)

func main() {
	a := sunstone.Conventional()

	kernels := []*sunstone.Workload{
		// FROSTT nell2 mode sizes, rank 32 (Fig. 6).
		sunstone.MTTKRP("mttkrp_nell2", 12092, 9184, 28818, 32),
		// FROSTT netflix mode sizes, rank 8.
		sunstone.TTMc("ttmc_netflix", 480189, 17770, 2182, 8),
		// SuiteSparse bcsstk17, rank 512.
		sunstone.SDDMM("sddmm_bcsstk17", 10974, 10974, 512),
		// Transformer attention as a matrix chain (Table II).
		sunstone.MMc("attention_mmc", 512, 64, 512, 64),
		// Tensor contraction layer over VGG features (Table II).
		sunstone.TCL("tcl_vgg", 512, 7, 7, 32, 32, 32),
	}

	// Versatility also means *user-defined* algebra: a 4D contraction with
	// no built-in constructor, written directly in the description language.
	custom, err := sunstone.NewWorkload("custom_contraction",
		map[sunstone.Dim]int{"A": 128, "B": 64, "C": 256, "D": 32},
		&sunstone.Tensor{Name: "X", Axes: []sunstone.Axis{sunstone.A("A"), sunstone.A("B"), sunstone.A("C")}},
		&sunstone.Tensor{Name: "Y", Axes: []sunstone.Axis{sunstone.A("C"), sunstone.A("D")}},
		&sunstone.Tensor{Name: "Z", Axes: []sunstone.Axis{sunstone.A("A"), sunstone.A("B"), sunstone.A("D")}, Output: true},
	)
	if err != nil {
		log.Fatal(err)
	}
	kernels = append(kernels, custom)

	for _, w := range kernels {
		res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
		if err != nil {
			log.Fatalf("%s: %v", w.Name, err)
		}
		fmt.Printf("=== %s (%.3e MACs)\n", w.Name, float64(w.MACs()))
		fmt.Println(res.Mapping)
		fmt.Printf("EDP %.4e, energy %.4e pJ, %.3e cycles, found in %v (%d candidates)\n\n",
			res.Report.EDP, res.Report.EnergyPJ, res.Report.Cycles, res.Elapsed, res.SpaceSize)
	}
}
