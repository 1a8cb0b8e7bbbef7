package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sunstone"
	"sunstone/internal/network"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
	"sunstone/internal/server"
)

// The traced run (-trace 1) reports the per-layer metrics. It has three
// parts: the layer probes (layers.go) on problems taken from the workload; a
// service pass, whose Server.Stats and job timestamps give the server.*,
// srv.* and journal.* numbers; and, for the library workloads, a library
// pass, whose results give the exact search counters. The workload's own
// kind of pass runs twice, without and with the program's obs trace, and
// the difference is obs.trace_overhead_share. None of these timings feeds
// an end-to-end metric.

// tracedScale is the share of the untraced run's operation counts the traced
// passes run, so a traced run fits the same time budget as an untraced one.
const tracedScale = 0.2

// tracedServiceJobs is the service pass's job count at nominalSeconds: the
// fewest that support a p99 (ten samples beyond it).
const tracedServiceJobs = 1000

// traceInputs is what a workload hands the traced run.
type traceInputs struct {
	problems []probeProblem
	nets     []probeNet
	lib      *libPlan // nil for the service workloads
	svc      *svcPlan
}

// transformerProbe is the fusion probes' network on workloads that have no
// network of their own: the service's transformer preset.
func transformerProbe() probeNet {
	return probeNet{name: "transformer@conventional", machine: "conventional",
		mk: func() *network.Network { return network.TransformerChain(512, 512, 2048) }}
}

// probeJobs turns probe problems into a service plan: n warm jobs cycling
// over the problems in the serde workload form, the problems themselves
// pre-submitted.
func probeJobs(workload string, problems []probeProblem, n int) (*svcPlan, error) {
	p := &svcPlan{Workload: workload}
	for _, pp := range problems {
		wj, err := serde.EncodeWorkload(pp.w)
		if err != nil {
			return nil, err
		}
		p.Hot = append(p.Hot, svcJob{Kind: kindHot, Row: pp.name,
			Req: server.SubmitRequest{Tenant: "bench", Arch: pp.machine, Workload: wj}})
	}
	for i := 0; i < n; i++ {
		p.Jobs = append(p.Jobs, p.Hot[i%len(p.Hot)])
	}
	return p, nil
}

func newTraceInputs(c *config, maxRows int) (*traceInputs, error) {
	in := &traceInputs{}
	jobs := scaleCount(tracedServiceJobs, c.seconds)
	switch c.workload {
	case wlColdLayers:
		rows := coldRows(maxRows)
		step := (len(rows) + maxProbeProblems - 1) / maxProbeProblems
		for i := 0; i < len(rows); i += step {
			in.problems = append(in.problems, probeProblem{name: rows[i].name, machine: rows[i].machine, w: rows[i].w})
		}
		in.nets = []probeNet{transformerProbe()}
		in.lib = newLibPlan(c.workload, c.seed, c.seconds*tracedScale, maxRows)
	case wlNetworkFused:
		rows := networkRows(maxRows)
		for _, r := range rows[:min(len(rows), 3)] {
			in.nets = append(in.nets, probeNet{name: r.name, machine: r.machine, mk: func() *network.Network { return r.net }})
			for _, l := range r.net.Layers {
				if len(in.problems) < maxProbeProblems {
					in.problems = append(in.problems, probeProblem{name: r.name + "/" + l.Name, machine: r.machine, w: l.Workload})
				}
			}
		}
		in.lib = newLibPlan(c.workload, c.seed, c.seconds*tracedScale, maxRows)
	default:
		hot := hotSet()
		for _, j := range append([]svcJob{hot[0], hot[2], hot[4], hot[6]}, coldGrid(2)...) {
			cs := j.Req.Conv
			w, _ := jobWorkload(&j.Req)
			in.problems = append(in.problems, probeProblem{
				name: fmt.Sprintf("%s/K%dC%dP%d", j.Row, cs.K, cs.C, cs.P), machine: j.Req.Arch, w: w,
			})
		}
		in.nets = []probeNet{transformerProbe()}
		in.svc = newSvcPlan(c.workload, c.seed, jobs)
	}
	if maxRows > 0 && len(in.problems) > maxRows {
		in.problems = in.problems[:maxRows]
	}
	if in.svc == nil {
		var err error
		if in.svc, err = probeJobs(c.workload, in.problems, jobs); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// libPass runs the library pass under ctx and returns its outcome with the
// solve geomean of the pass.
func libPass(ctx context.Context, p *libPlan, tr *tracer) (*outcome, float64) {
	o := runLibrary(ctx, p, tr)
	var rows []float64
	for _, m := range rowMedians(o.ok()) {
		rows = append(rows, m)
	}
	return o, geomean(rows)
}

// tracedRun is one -trace 1 run: it returns every per-layer metric and the
// outcome of the traced passes (for attempted/failed).
// maxRows > 0 down-scales the row and probe sets too (tests only).
func tracedRun(c *config, maxRows int) (metricSet, *outcome, error) {
	ctx := context.Background()
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	in, err := newTraceInputs(c, maxRows)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	a := acc{}
	total := &outcome{}
	merge := func(o *outcome) {
		total.samples = append(total.samples, o.samples...)
		total.auxFailures = append(total.auxFailures, o.auxFailures...)
	}

	// 1. Layer probes.
	var records [][]byte
	for i := range in.problems {
		if err := probeProblemLayers(ctx, tr, &in.problems[i], a); err != nil {
			return nil, nil, err
		}
	}
	for i := range in.nets {
		if err := probeFusion(ctx, tr, &in.nets[i], a); err != nil {
			return nil, nil, err
		}
	}
	if err := probeServer(ctx, tr, &in.problems[0], a); err != nil {
		return nil, nil, err
	}

	// 2. Service pass (every workload), twice on the service workloads.
	svcOut, facts, results, err := runService(in.svc, c.workdir, tr, nil)
	if err != nil {
		return nil, nil, err
	}
	merge(svcOut)
	for _, r := range results {
		if len(records) < 3 && r.status != nil {
			if b, merr := json.Marshal(r.status); merr == nil {
				records = append(records, b) // a real result record; also stands in for a checkpoint
			}
		}
	}
	if b, merr := json.Marshal(&in.svc.Jobs[0].Req); merr == nil {
		records = append(records, b) // a real submit record
	}
	if err := probeJournal(tr, c.workdir, records, a); err != nil {
		return nil, nil, err
	}
	overhead := 0.0
	if in.lib == nil {
		tracedOut, _, _, err := runService(in.svc, c.workdir, tr, obs.NewTrace())
		if err != nil {
			return nil, nil, err
		}
		merge(tracedOut)
		plain := median(column(svcOut.ok(), func(s sample) float64 { return s.termMS }))
		traced := median(column(tracedOut.ok(), func(s sample) float64 { return s.termMS }))
		overhead = traced/plain - 1
	}

	// 3. Library pass (library workloads), without and with the program's
	// trace on the context.
	var libOut *outcome
	if in.lib != nil {
		if err := setupLibrary(ctx, in.lib); err != nil {
			return nil, nil, err
		}
		var plain, traced float64
		libOut, plain = libPass(ctx, in.lib, tr)
		merge(libOut)
		tracedOut, traced := libPass(sunstone.WithTrace(ctx, sunstone.NewTrace()), in.lib, tr)
		merge(tracedOut)
		verifyLibTwins(ctx, in.lib, total, tr)
		overhead = traced/plain - 1
	}

	m, err := perLayerMetrics(c, a, tr, svcOut, facts, libOut, in)
	if err != nil {
		return nil, nil, err
	}
	m["obs.trace_overhead_share"] = metric{overhead, "ratio"}
	addProcMetrics(m)
	path := filepath.Join(c.outDir, "trace-"+c.workload+".json")
	if err := tr.writeChrome(path); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d spans)\n", path, len(tr.spans))
	return m, total, nil
}

// perLayerMetrics folds the probe samples, the trace and the passes' facts
// into the per-layer metric set.
func perLayerMetrics(c *config, a acc, tr *tracer, svcOut *outcome, facts *serviceFacts, libOut *outcome, in *traceInputs) (metricSet, error) {
	m := metricSet{}
	// Probe samples, one per probed problem (its median over repetitions):
	// the mean over problems, so that sums and differences of metrics hold
	// (search = cold − compile; the span stages add up to the traced call).
	// Quality gaps are ratios and average geometrically.
	for _, spec := range perLayer {
		if xs, ok := a[spec.Name]; ok {
			v := mean(xs)
			if strings.Contains(spec.Name, "_gap") {
				v = geomean(xs)
			}
			m[spec.Name] = metric{v, spec.Unit}
		}
	}
	m["core.search_ms"] = metric{m["core.solve_cold_ms"].Value - m["core.compile_ms"].Value, "ms"}
	m["core.warm_speedup"] = metric{m["core.solve_cold_ms"].Value / m["core.solve_warm_ms"].Value, "ratio"}
	m["core.speedup_threads"] = metric{m["core.solve_t1_ms"].Value / m["core.solve_cold_ms"].Value, "ratio"}
	m["exec.verify_ms"] = metric{median(tr.perCall("exec.Verify", time.Millisecond)), "ms"}

	// Exact search counters: from the library pass's results, or from the
	// server's cumulative totals.
	var search obs.SearchStats
	var compiles, hits uint64
	if libOut != nil {
		for _, s := range libOut.ok() {
			addSearch(&search, s.search)
			compiles += s.engine.Compiles
			hits += s.engine.Hits
		}
	} else {
		search = facts.stats.Search
		search.EvalCacheHits = facts.stats.Counters[obs.CtrCacheHits]
		search.EvalCacheMisses = facts.stats.Counters[obs.CtrCacheMisses]
		compiles, hits = facts.stats.Engine.Compiles, facts.stats.Engine.Hits
	}
	count := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	count("core.generated", search.Generated)
	count("core.evaluated", search.Evaluated)
	count("core.pruned_ordering", search.PrunedOrdering)
	count("core.pruned_tiling", search.PrunedTiling)
	count("core.pruned_unrolling", search.PrunedUnrolling)
	count("core.bound_pruned", search.BoundPruned)
	count("core.deduped", search.Deduped)
	count("core.pruned_beam", search.PrunedBeam)
	count("core.engine_compiles", compiles)
	m["core.evaluated_share"] = metric{share(search.Evaluated, search.Generated), "ratio"}
	m["core.engine_hit_share"] = metric{share(hits, hits+compiles), "ratio"}
	m["cost.cache_hit_share"] = metric{share(search.EvalCacheHits, search.EvalCacheHits+search.EvalCacheMisses), "ratio"}

	// The service pass.
	ok := svcOut.ok()
	if len(ok) == 0 {
		return nil, fmt.Errorf("service pass: no job succeeded: %v", svcOut.failures())
	}
	if err := requirePercentile(len(ok), 99, c.lenient()); err != nil {
		return nil, fmt.Errorf("service pass: %w", err)
	}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	ms("server.submit_ack_p99_ms", quantile(column(ok, func(s sample) float64 { return s.ackMS }), 0.99))
	ms("server.first_incumbent_p99_ms", quantile(column(ok, func(s sample) float64 { return s.firstMS }), 0.99))
	ms("server.terminal_p99_ms", quantile(column(ok, func(s sample) float64 { return s.termMS }), 0.99))
	ms("server.queue_wait_mean_ms", mean(column(ok, func(s sample) float64 { return s.queueMS })))
	ms("server.run_mean_ms", mean(column(ok, func(s sample) float64 { return s.runMS })))
	m["server.jobs_per_s"] = metric{float64(len(ok)) / svcOut.timedSec, "1/s"}
	m["server.sse_frames_per_job"] = metric{mean(column(ok, func(s sample) float64 { return float64(s.frames) })), "count"}
	fallbacks := 0
	for _, s := range ok {
		if s.fallback {
			fallbacks++
		}
	}
	m["server.fallback_share"] = metric{float64(fallbacks) / float64(len(ok)), "ratio"}
	ctr := facts.stats.Counters
	shed := ctr[obs.CtrSrvShedTenant] + ctr[obs.CtrSrvShedQueue] + ctr[obs.CtrSrvShedDrain]
	m["server.shed_share"] = metric{share(shed, shed+ctr[obs.CtrSrvAdmitted]), "ratio"}
	for _, name := range srvCounters {
		count(name, ctr[name])
	}

	// The journal: counts from the pass (zero without -data-dir), times
	// from the probe — or, on the durable workload, the real reopen.
	js := facts.journal
	jobs := float64(facts.jobs)
	m["journal.fsyncs_per_job"] = metric{float64(js.Fsyncs) / jobs, "count"}
	m["journal.bytes_per_job"] = metric{float64(js.Bytes) / jobs, "bytes"}
	count("journal.compactions", js.Compactions)
	count("journal.append_errors", js.AppendErrors)
	if facts.durable {
		ms("journal.replay_ms", facts.replayMS)
	}
	return m, nil
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// addProcMetrics reports the traced run's own process: peak resident set,
// CPU time and GC pause total.
func addProcMetrics(m metricSet) {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					m["proc.peak_rss_mb"] = metric{kb / 1024, "MB"}
				}
			}
		}
	}
	if _, ok := m["proc.peak_rss_mb"]; !ok {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["proc.peak_rss_mb"] = metric{float64(ms.Sys) / (1 << 20), "MB"}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		m["proc.cpu_s"] = metric{cpu.Seconds(), "s"}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_pause_ms"] = metric{float64(ms.PauseTotalNs) / 1e6, "ms"}
}
