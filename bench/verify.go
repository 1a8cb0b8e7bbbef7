package main

import (
	"context"
	"fmt"
	"math"

	"sunstone"
	"sunstone/internal/cost"
	"sunstone/internal/exec"
	"sunstone/internal/mapping"
	"sunstone/internal/network"
	"sunstone/internal/serde"
	"sunstone/internal/server"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// Correctness checks. All of them run outside the timed region; a failure
// is returned as the reason and counts in failed/attempted.

// checkMapping validates m and re-scores it on the independent slow path:
// cost.Evaluate must reproduce the EDP the program reported, bit for bit.
func checkMapping(m *mapping.Mapping, reportedEDP float64) string {
	if m == nil {
		return "no mapping returned"
	}
	if err := m.Validate(); err != nil {
		return "Mapping.Validate: " + err.Error()
	}
	if got := cost.Evaluate(m).EDP; math.Float64bits(got) != math.Float64bits(reportedEDP) {
		return fmt.Sprintf("cost.Evaluate EDP %v != reported %v", got, reportedEDP)
	}
	return ""
}

func checkResult(res *sunstone.Result) string {
	if res.Stopped != sunstone.StopComplete {
		return fmt.Sprintf("search stopped %v, not complete", res.Stopped)
	}
	if res.FallbackUsed != "" {
		return "fallback mapper used: " + res.FallbackUsed
	}
	return checkMapping(res.Mapping, res.Report.EDP)
}

// checkLibResult checks one library op. Network rows check every member:
// unfused members re-score on the default model; members of a fused group
// were scored under the group's residency model, so for those the group
// and network totals are checked for consistency instead, and the fused cut
// must not lose to the all-singleton one.
func checkLibResult(r *row, res *libResult) string {
	if r.net == nil {
		return checkResult(&res.result)
	}
	s := &res.schedule
	if s.Failed != 0 {
		return fmt.Sprintf("%d layers failed", s.Failed)
	}
	if want := len(r.net.Positions()); len(s.Layers) != want {
		return fmt.Sprintf("%d layer results for %d chain positions", len(s.Layers), want)
	}
	var energy, cycles float64
	li := 0
	for _, g := range s.Groups {
		var ge, gc float64
		for range g.Layers {
			l := &s.Layers[li]
			li++
			if l.Result.Mapping == nil {
				return l.Layer + ": no mapping"
			}
			if err := l.Result.Mapping.Validate(); err != nil {
				return l.Layer + ": Mapping.Validate: " + err.Error()
			}
			if l.Result.Stopped != sunstone.StopComplete || l.Result.FallbackUsed != "" {
				return fmt.Sprintf("%s: stopped %v, fallback %q", l.Layer, l.Result.Stopped, l.Result.FallbackUsed)
			}
			if g.PinLevel < 0 {
				if why := checkMapping(l.Result.Mapping, l.Result.Report.EDP); why != "" {
					return l.Layer + ": " + why
				}
			}
			ge += l.Result.Report.EnergyPJ
			gc += l.Result.Report.Cycles
		}
		if !closeTo(ge, g.EnergyPJ) || !closeTo(gc, g.Cycles) {
			return fmt.Sprintf("group %v totals (%v, %v) != members (%v, %v)", g.Layers, g.EnergyPJ, g.Cycles, ge, gc)
		}
		energy += g.EnergyPJ
		cycles += g.Cycles
	}
	if !closeTo(energy*cycles, s.EDP) {
		return fmt.Sprintf("network EDP %v != group totals %v", s.EDP, energy*cycles)
	}
	if s.EDP > s.UnfusedEDP {
		return fmt.Sprintf("fused EDP %v worse than unfused %v", s.EDP, s.UnfusedEDP)
	}
	if !r.fused && s.EDP != s.UnfusedEDP {
		return fmt.Sprintf("unfused row: EDP %v != unfused EDP %v", s.EDP, s.UnfusedEDP)
	}
	return ""
}

// closeTo allows the last-bit differences of summing the same terms in
// another order.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// ---- service results ----

// checkJobStatus checks a terminal JobStatus as a client received it.
func checkJobStatus(job *svcJob, st *server.JobStatus) string {
	if st.State != server.JobDone {
		return fmt.Sprintf("state %s: %s", st.State, st.Error)
	}
	if st.Stopped != "complete" {
		return "stopped " + st.Stopped
	}
	if st.FallbackUsed != "" {
		return "fallback mapper used: " + st.FallbackUsed
	}
	if job.Req.Network != nil {
		var energy, cycles float64
		for _, g := range st.Groups {
			energy += g.EnergyPJ
			cycles += g.Cycles
		}
		if !closeTo(energy*cycles, st.EDP) {
			return fmt.Sprintf("network EDP %v != group totals %v", st.EDP, energy*cycles)
		}
		if st.EDP > st.UnfusedEDP {
			return fmt.Sprintf("fused EDP %v worse than unfused %v", st.EDP, st.UnfusedEDP)
		}
		return ""
	}
	w, a := jobWorkload(&job.Req)
	m, err := serde.DecodeMapping(st.Mapping, w, a)
	if err != nil {
		return "serde.DecodeMapping: " + err.Error()
	}
	return checkMapping(m, st.EDP)
}

// ---- down-scaled twins ----

// twin returns the family's down-scaled kernel (at most ~2·10⁵ MACs), small
// enough for the reference interpreter.
func twin(family string) *tensor.Workload {
	switch family {
	case famConvInf:
		c := twinConvSpec
		return workloads.Conv2D("twin-conv", c.N, c.K, c.C, c.P, c.Q, c.R, c.S, 1, 1)
	case famConvWU:
		return workloads.Conv2DWeightUpdate("twin-conv-wu", 1, 8, 8, 8, 8, 3, 3)
	case famMTTKRP:
		return workloads.MTTKRP("twin-mttkrp", 16, 16, 16, 8)
	case famTTMc:
		return workloads.TTMc("twin-ttmc", 12, 12, 12, 4)
	case famSDDMM:
		return workloads.SDDMM("twin-sddmm", 32, 32, 32)
	case famFC:
		return workloads.FC("twin-fc", 16, 32, 32)
	}
	panic("bench: no twin for family " + family)
}

// twinConvSpec is the conv-inference twin, in the service's conv form.
var twinConvSpec = server.ConvSpec{N: 1, K: 8, C: 8, P: 8, Q: 8, R: 3, S: 3}

// twinNetwork is a two-layer chain of family twins.
func twinNetwork(family string) *network.Network {
	if family == famFC {
		return network.TransformerChain(16, 16, 32)
	}
	net, err := network.FromConvShapes("twin-chain", []workloads.ConvShape{
		{Name: "t0", K: 8, C: 4, P: 8, Q: 8, R: 3, S: 3, StrideH: 1, StrideW: 1},
		{Name: "t1", K: 8, C: 8, P: 8, Q: 8, R: 3, S: 3, StrideH: 1, StrideW: 1},
	}, 1, nil)
	if err != nil {
		panic(err)
	}
	return net
}

// verifyExec runs m on the reference interpreter.
func verifyExec(tr *tracer, parent int, name string, m *mapping.Mapping) string {
	var ok bool
	var err error
	tr.call(parent, "exec.Verify", func() { ok, err = exec.Verify(m) })
	if err != nil {
		return name + ": exec.Verify: " + err.Error()
	}
	if !ok {
		return name + ": mapped execution differs from the reference"
	}
	return ""
}

type pair struct{ family, machine string }

// libPairs lists the (kernel family, machine) pairs of the rows.
func libPairs(rows []row) []pair {
	seen := map[pair]bool{}
	var out []pair
	for _, r := range rows {
		p := pair{r.family, r.machine}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// verifyLibTwins solves each pair's down-scaled twin through the same entry
// point as the workload's rows and executes the mapping against the
// reference interpreter.
func verifyLibTwins(ctx context.Context, p *libPlan, o *outcome, tr *tracer) {
	for _, pr := range libPairs(p.rows) {
		name := "twin " + pr.family + "@" + pr.machine
		op := tr.newOp(name)
		r := row{name: name, machine: pr.machine, family: pr.family}
		if p.Workload == wlNetworkFused {
			r.net, r.fused = twinNetwork(pr.family), true
		} else {
			r.w = twin(pr.family)
		}
		res, _, err := runLibOp(ctx, &r)
		switch {
		case err != nil:
			o.failf("%s: %v", name, err)
		case r.net == nil:
			if why := verifyExec(tr, op, name, res.result.Mapping); why != "" {
				o.failf("%s", why)
			}
		default:
			for _, l := range res.schedule.Layers {
				if why := verifyExec(tr, op, name+"/"+l.Layer, l.Result.Mapping); why != "" {
					o.failf("%s", why)
				}
			}
		}
		tr.end(op)
	}
}
