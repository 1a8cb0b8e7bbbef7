// Command experiments regenerates the paper's evaluation tables and figures
// (Section V) and prints them as text.
//
// Usage:
//
//	experiments -exp all            # everything, full budgets (minutes)
//	experiments -exp fig8 -quick    # one figure, CI-speed budgets
//
// Experiments: table1, table3, fig6, fig7, fig8, table6, fig9, fusion, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sunstone/internal/experiments"
	"sunstone/internal/obs"
	"sunstone/internal/profiling"
)

var (
	exp      = flag.String("exp", "all", "experiment: table1 | table3 | fig6 | fig7 | fig8 | table6 | fig9 | spread | fusion | all")
	quick    = flag.Bool("quick", false, "shrink layer sets and search budgets")
	seed     = flag.Int64("seed", 1, "seed for randomized baselines")
	csv      = flag.Bool("csv", false, "emit fig6/fig7/fig8 rows as CSV instead of text")
	layerTO  = flag.Duration("layer-timeout", 0, "per-workload wall-clock budget for every tool (0 = each tool's natural budget); early-stopped runs report best-so-far with a stopped annotation")
	threads  = flag.Int("threads", 0, "worker goroutines per search (0 = all cores); results are identical at any value")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of every search's phases to this file")
)

func main() {
	flag.Parse()
	if *layerTO < 0 {
		fmt.Fprintln(os.Stderr, "-layer-timeout must be >= 0")
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	defer stopProf()
	cfg := experiments.Config{Quick: *quick, Seed: *seed, LayerTimeout: *layerTO, Threads: *threads}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		cfg.Ctx = obs.WithTrace(context.Background(), tr)
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			defer f.Close()
			if err := tr.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "experiments: trace written to %s (%d events)\n", *traceOut, tr.Events())
		}()
	}

	run := func(name string, f func()) {
		if *exp == name || *exp == "all" {
			f()
			fmt.Println()
		}
	}

	run("table1", func() { fmt.Print(experiments.Table1()) })
	run("table3", func() { fmt.Print(experiments.Table3()) })
	figure := func(title string, runs []experiments.ToolRun) {
		if *csv {
			fmt.Print(experiments.RunsCSV(runs))
			return
		}
		fmt.Print(experiments.RenderRuns(title, runs))
		fmt.Print(experiments.RenderSummaries(experiments.Summarize(runs)))
	}
	run("fig6", func() {
		figure("Fig. 6 — non-DNN workloads on the conventional accelerator", experiments.Fig6(cfg))
	})
	run("fig7", func() {
		figure("Fig. 7 — Inception-v3 weight update (batch 16), conventional accelerator", experiments.Fig7(cfg))
	})
	run("fig8", func() {
		figure("Fig. 8 — ResNet-18 inference (batch 16), Simba-like accelerator", experiments.Fig8(cfg))
	})
	run("table6", func() { fmt.Print(experiments.RenderTable6(experiments.Table6(cfg))) })
	run("fusion", func() {
		runs := experiments.Fusion(cfg)
		if *csv {
			fmt.Print(experiments.RunsCSV(runs))
			return
		}
		fmt.Print(experiments.RenderFusion(runs))
	})
	run("spread", func() { fmt.Print(experiments.RenderSpread(experiments.DataflowSpread(cfg))) })
	run("fig9", func() {
		r, err := experiments.Fig9(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig9:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderFig9(r))
	})

	switch *exp {
	case "table1", "table3", "fig6", "fig7", "fig8", "table6", "fig9", "spread", "fusion", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
