package experiments

import (
	"fmt"
	"strings"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/network"
	"sunstone/internal/workloads"
)

// Fusion — fused vs unfused whole-network scheduling: the fusion-cut search
// (a fused group keeps its intermediate tensors resident on chip, paying
// reserved buffer capacity for zero DRAM handoff traffic) against the
// per-layer baseline it solves in the same run. Each network×accelerator
// cell yields two rows: a "Sunstone" row with the unfused EDP and a
// "Sunstone-fused" row with the fused EDP and the chosen cut in Group.
// The fused row can never be worse — the all-singleton cut is always a
// candidate — so the interesting output is how much better it is and where
// the cut lands; on accelerators whose buffers cannot hold a handoff
// (capacity-infeasible pins) the cut honestly degenerates to all
// singletons and the two rows agree.
func Fusion(cfg Config) []ToolRun {
	type netCase struct {
		name  string
		build func() (*network.Network, error)
	}
	nets := []netCase{
		{"resnet18", func() (*network.Network, error) {
			shapes, repeats := workloads.ResNet18, workloads.ResNet18Repeats()
			if cfg.Quick {
				shapes, repeats = shapes[:3], repeats[:3]
			}
			return network.FromConvShapes("resnet18", shapes, 1, repeats)
		}},
		{"transformer", func() (*network.Network, error) {
			if cfg.Quick {
				return network.TransformerChain(64, 64, 256), nil
			}
			return network.TransformerChain(512, 512, 2048), nil
		}},
	}
	arches := []*arch.Arch{arch.Conventional()}
	if !cfg.Quick {
		arches = append(arches, arch.Simba())
	}

	var runs []ToolRun
	for _, a := range arches {
		for _, nc := range nets {
			net, err := nc.build()
			label := nc.name + "@" + a.Name
			if err != nil {
				runs = append(runs, ToolRun{Tool: "Sunstone-fused", Workload: label, Reason: err.Error()})
				continue
			}
			eng := core.NewEngine(0)
			opt := cfg.options(core.Options{Timeout: cfg.LayerTimeout})
			if cfg.Quick {
				opt.BeamWidth, opt.TilesPerStep, opt.UnrollsPerStep = 4, 8, 1
			}
			nr, err := eng.SolveNetworkFused(cfg.ctx(), net, a, opt, core.FusionOptions{})
			if err != nil {
				runs = append(runs, ToolRun{Tool: "Sunstone-fused", Workload: label, Reason: err.Error()})
				continue
			}
			secs := nr.Elapsed.Seconds()
			runs = append(runs,
				ToolRun{
					Tool: "Sunstone", Workload: label, Valid: true,
					EDP: nr.UnfusedEDP, EnergyPJ: nr.UnfusedEnergyPJ, Cycles: nr.UnfusedCycles,
					Seconds: secs, Stopped: stoppedLabel(nr.Stopped),
				},
				ToolRun{
					Tool: "Sunstone-fused", Workload: label, Valid: true,
					EDP: nr.EDP, EnergyPJ: nr.TotalEnergyPJ, Cycles: nr.TotalCycles,
					Seconds: secs, Stopped: stoppedLabel(nr.Stopped),
					Group: renderCut(nr.Groups), FusedEDP: nr.EDP,
				})
		}
	}
	return runs
}

// renderCut renders a fusion cut compactly: groups joined by '|', members
// within a group by '+'.
func renderCut(groups []core.GroupResult) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = strings.Join(g.Layers, "+")
	}
	return strings.Join(parts, "|")
}

// RenderFusion renders the fusion experiment as a text table: per
// network×accelerator, the unfused and fused EDP, the improvement factor,
// and the chosen cut.
func RenderFusion(runs []ToolRun) string {
	var b strings.Builder
	b.WriteString("Fusion — fused vs unfused network scheduling\n")
	unfused := map[string]float64{}
	for _, r := range runs {
		if r.Tool == "Sunstone" {
			unfused[r.Workload] = r.EDP
		}
	}
	for _, r := range runs {
		if r.Tool != "Sunstone-fused" {
			continue
		}
		if !r.Valid {
			fmt.Fprintf(&b, "  %-28s FAILED (%s)\n", r.Workload, r.Reason)
			continue
		}
		base := unfused[r.Workload]
		gain := base / r.EDP
		note := ""
		if r.Stopped != "" {
			note = "  [stopped: " + r.Stopped + "]"
		}
		fmt.Fprintf(&b, "  %-28s unfused EDP %.3e -> fused %.3e (%.2fx)  time %.1fs%s\n",
			r.Workload, base, r.EDP, gain, r.Seconds, note)
		fmt.Fprintf(&b, "  %-28s cut: %s\n", "", r.Group)
	}
	return b.String()
}
