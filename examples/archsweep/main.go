// Architecture design-space exploration: because Sunstone finds a
// near-optimal mapping in well under a second, it can sit inside an
// architecture sweep — vary PE count and L1 capacity, re-map the workload
// for every configuration, and compare the machines at their respective
// best dataflows (comparing architectures under a *fixed* dataflow
// systematically mis-ranks them). This is the kind of co-design loop
// MAGNet-style generators run, with Sunstone as the inner mapper.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sunstone"
)

func main() {
	w := sunstone.ResNet18Layers[2].Inference(4) // conv3_1
	fmt.Printf("workload: %s\n\n", w.Name)
	fmt.Printf("%-8s %-10s %-12s %-12s %-12s %s\n",
		"PEs", "L1/PE", "EDP", "energy pJ", "cycles", "PE util")

	start := time.Now()
	configs := 0
	type point struct {
		pes, l1Words int
		edp          float64
	}
	best := point{edp: -1}
	for _, pes := range []int{16, 64, 256, 1024} {
		for _, l1Words := range []int{128, 256, 512, 1024} {
			a := sunstone.TinySpatial(l1Words, 1<<20, pes)
			res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
			if err != nil {
				log.Fatalf("pes=%d l1=%d: %v", pes, l1Words, err)
			}
			configs++
			fmt.Printf("%-8d %-10d %-12.3e %-12.3e %-12.0f %.0f%%\n",
				pes, l1Words, res.Report.EDP, res.Report.EnergyPJ, res.Report.Cycles,
				100*res.Mapping.PEUtilization())
			if best.edp < 0 || res.Report.EDP < best.edp {
				best = point{pes: pes, l1Words: l1Words, edp: res.Report.EDP}
			}
		}
	}
	fmt.Printf("\nswept %d architecture points in %v\n", configs, time.Since(start).Round(time.Millisecond))
	fmt.Printf("best configuration: %d PEs with %d-word L1 (EDP %.3e)\n",
		best.pes, best.l1Words, best.edp)
}
