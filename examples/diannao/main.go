// DianNao overhead analysis: map a ResNet-18 layer onto the DianNao-like
// accelerator, compile the mapping to the machine's 256-bit instruction
// stream, execute it on the event-counting simulator, and compare against
// naive DRAM streaming — the Section V-D / Fig. 9 pipeline end to end.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"sunstone"
)

func main() {
	a := sunstone.DianNao()
	layer := sunstone.ResNet18Layers[1] // conv2_x: 64x64, 56x56, 3x3
	w := layer.Inference(1)

	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer %s on %s\nmapping:\n%s\n\n", layer.Name, a.Name, res.Mapping)

	run, err := sunstone.RunOnDianNao(res.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled to %d instructions over %d processing passes\n", run.Instructions, run.Passes)
	fmt.Printf("simulated: %d MACs, %d cycles, DRAM %d reads / %d writes\n\n",
		run.MACs, run.Cycles, run.DRAMReads, run.DRAMWrites)

	opt := run.TotalEnergyPJ()
	naiveBreak := sunstone.NaiveDianNaoEnergy(w)
	naive := naiveBreak["MAC"] + naiveBreak["DRAM"]

	fmt.Printf("naive streaming energy:     %.4e pJ\n", naive)
	fmt.Printf("tiled + unrolled energy:    %.4e pJ  (%.2fx more efficient)\n\n", opt, naive/opt)

	fmt.Println("optimized energy breakdown (Fig. 9b style):")
	keys := make([]string, 0, len(run.EnergyPJ))
	for k := range run.EnergyPJ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-8s %12.4e pJ (%5.2f%%)\n", k, run.EnergyPJ[k], 100*run.EnergyPJ[k]/opt)
	}
	fmt.Printf("\ninstruction overhead: %.2f%% of total; data reordering: %.2f%%\n",
		100*run.EnergyPJ["Instr"]/opt, 100*run.EnergyPJ["Reorder"]/opt)
}
