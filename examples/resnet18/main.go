// ResNet-18 on Simba: schedule every distinct convolution layer of
// ResNet-18 (batch 16) onto the Simba-like accelerator of Table IV — the
// Fig. 8 scenario — and report per-layer and whole-network results. This is
// the "modern architecture" case with two levels of spatial processing
// (a PE grid and vector-MAC lanes inside each PE) plus weight bypass of the
// global buffer, which most prior mappers cannot target at all.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"sunstone"
)

func main() {
	a := sunstone.Simba()
	fmt.Println(a)
	fmt.Println()

	net, err := sunstone.FromConvShapes("resnet18", sunstone.ResNet18Layers, 16, sunstone.ResNet18Repeats())
	if err != nil {
		log.Fatal(err)
	}
	// MaxGroup 1 is the per-layer schedule: one independent search per layer,
	// no fusion cuts.
	sched, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a,
		sunstone.NetworkOptions{}, sunstone.FusionOptions{MaxGroup: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-3s %-12s %-12s %-10s %-8s %s\n",
		"layer", "x", "EDP", "energy pJ", "cycles", "search", "mapping (DRAM level)")
	// The schedule holds one entry per executed position; a repeated layer's
	// occurrences share one result, so print its first with the count.
	for i, p := range net.Positions() {
		if p.Occ > 0 {
			continue
		}
		l := sched.Layers[i]
		rep := l.Result.Report
		firstLine, _, _ := strings.Cut(l.Result.Mapping.String(), "\n")
		fmt.Printf("%-10s %-3d %-12.3e %-12.3e %-10.0f %-8v %s\n",
			l.Layer, net.Layers[p.Layer].Repeats, rep.EDP, rep.EnergyPJ, rep.Cycles,
			l.Result.Elapsed.Round(time.Millisecond), firstLine)
	}
	fmt.Printf("\nnetwork totals (repeats applied): %.4e pJ, %.3e cycles, EDP %.4e\n",
		sched.TotalEnergyPJ, sched.TotalCycles, sched.EDP)
	fmt.Printf("whole network scheduled in %v\n", sched.Elapsed.Round(time.Millisecond))
}
