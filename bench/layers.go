package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sunstone/internal/analytic"
	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/cost"
	"sunstone/internal/journal"
	"sunstone/internal/mapping"
	"sunstone/internal/network"
	"sunstone/internal/obs"
	"sunstone/internal/order"
	"sunstone/internal/serde"
	"sunstone/internal/server"
	"sunstone/internal/tensor"
	"sunstone/internal/tile"
	"sunstone/internal/unroll"
)

// Layer probes: the traced run times calls into each module's exported
// functions from outside, one benchmark-side span per call (or per batch of
// calls too short to time singly). Every probe runs on inputs taken from
// the workload being traced, so a layer's number is its cost on that
// workload's problems. Probe timings never feed an end-to-end metric.

// probeProblem is one single-layer problem the probes run on.
type probeProblem struct {
	name    string
	machine string
	w       *tensor.Workload
}

// probeNet is one network the fusion probes run on.
type probeNet struct {
	name    string
	machine string
	mk      func() *network.Network
}

// maxProbeProblems bounds the probe set so a traced run stays short.
const maxProbeProblems = 6

// acc collects samples per metric name.
type acc map[string][]float64

func (a acc) add(name string, v float64) { a[name] = append(a[name], v) }

// timed runs fn as a span covering n calls and returns the per-call time
// in units of per.
func timed(tr *tracer, parent int, name string, n int, per time.Duration, fn func()) float64 {
	sp := tr.begin(parent, name, n)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(sp)
	return float64(d) / float64(n) / float64(per)
}

// mallocs returns the heap allocations and bytes fn makes.
func mallocs(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// level0TileSpace is the tiling enumeration of w's innermost level on a:
// quota = the problem bounds, fits = the level's buffer capacities.
func level0TileSpace(w *tensor.Workload, a *arch.Arch) tile.Space {
	lvl := &a.Levels[0]
	return tile.Space{
		Quota: w.FullExtents(),
		Fits: func(c tile.Candidate) bool {
			for bi := range lvl.Buffers {
				buf := &lvl.Buffers[bi]
				if buf.Bytes == 0 {
					continue
				}
				var bits int64
				for _, t := range w.Tensors {
					if buf.Holds(t.Name) {
						bits += int64(t.Footprint(c)) * int64(a.Bits(t.Name))
					}
				}
				if bits > buf.Bytes*8 {
					return false
				}
			}
			return true
		},
	}
}

// spatialUnrollSpace is the unrolling enumeration at a's innermost level
// with a fanout, under the default utilization threshold.
func spatialUnrollSpace(w *tensor.Workload, a *arch.Arch) unroll.Space {
	lvl := &a.Levels[0]
	for i := range a.Levels {
		if a.Levels[i].Fanout > 1 {
			lvl = &a.Levels[i]
			break
		}
	}
	return unroll.Space{
		ReductionDims:         w.ReductionDims(),
		Quota:                 w.FullExtents(),
		Fanout:                lvl.Fanout,
		MinUtilization:        core.DefaultOptions().MinUtilization,
		AllowSpatialReduction: lvl.AllowSpatialReduction,
	}
}

// probeProblemLayers runs every single-problem probe on p and adds one
// sample per metric to out: the median of the probe's repetitions.
func probeProblemLayers(ctx context.Context, tr *tracer, p *probeProblem, out acc) error {
	a := acc{}
	if err := probeProblem1(ctx, tr, p, a); err != nil {
		return err
	}
	for name, reps := range a {
		out.add(name, median(reps))
	}
	return nil
}

func probeProblem1(ctx context.Context, tr *tracer, p *probeProblem, a acc) error {
	op := tr.newOp("probe " + p.name)
	defer tr.end(op)
	am := machine(p.machine)
	prob := core.Problem{Workload: p.w, Arch: am}

	a.add("core.key_us", timed(tr, op, "core.Problem.Key", 20, time.Microsecond, func() {
		for i := 0; i < 20; i++ {
			prob.Key()
		}
	}))

	var ords []order.Ordering
	var ostats order.Stats
	for i := 0; i < 3; i++ {
		a.add("order.enumerate_us", timed(tr, op, "order.Enumerate", 1, time.Microsecond, func() {
			ords, ostats = order.Enumerate(p.w)
		}))
	}
	a.add("order.kept", float64(ostats.Survivors))
	if ostats.TotalOrders > 0 {
		a.add("order.pruned_share", 1-float64(ostats.Survivors)/float64(ostats.TotalOrders))
	}

	var tstats tile.Stats
	for i := 0; i < 3; i++ {
		a.add("tile.enumerate_us", timed(tr, op, "tile.Enumerate", 1, time.Microsecond, func() {
			_, tstats = tile.Enumerate(level0TileSpace(p.w, am))
		}))
	}
	a.add("tile.nodes_visited", float64(tstats.NodesVisited))
	if tstats.NodesVisited > 0 {
		a.add("tile.survivor_share", float64(tstats.Survivors)/float64(tstats.NodesVisited))
	}

	var ustats unroll.Stats
	for i := 0; i < 3; i++ {
		a.add("unroll.enumerate_us", timed(tr, op, "unroll.Enumerate", 1, time.Microsecond, func() {
			_, ustats = unroll.Enumerate(spatialUnrollSpace(p.w, am))
		}))
	}
	a.add("unroll.nodes_visited", float64(ustats.NodesVisited))
	if ustats.NodesVisited > 0 {
		a.add("unroll.survivor_share", float64(ustats.Survivors)/float64(ustats.NodesVisited))
	}

	var seed *mapping.Mapping
	var err error
	for i := 0; i < 3; i++ {
		a.add("analytic.seed_us", timed(tr, op, "analytic.Seed", 1, time.Microsecond, func() {
			seed, err = analytic.Seed(p.w, am, ords)
		}))
	}
	if err != nil {
		return fmt.Errorf("%s: analytic.Seed: %w", p.name, err)
	}

	var sess *cost.Session
	for i := 0; i < 3; i++ {
		a.add("cost.session_build_us", timed(tr, op, "cost.Model.NewSession", 1, time.Microsecond, func() {
			sess = cost.Default.NewSession(p.w, am)
		}))
	}
	for i := 0; i < 3; i++ {
		a.add("core.compile_ms", timed(tr, op, "core.Problem.Compile", 1, time.Millisecond, func() {
			_, err = prob.Compile()
		}))
	}
	if err != nil {
		return fmt.Errorf("%s: Compile: %w", p.name, err)
	}

	// Cold and warm solves: a fresh Engine's first call, then its second.
	var cold, warm core.Result
	var coldMS []float64
	for i := 0; i < 3; i++ {
		eng := core.NewEngine(0)
		ms := timed(tr, op, "core.Engine.Solve(cold)", 1, time.Millisecond, func() {
			cold, err = eng.Solve(ctx, prob, core.Options{})
		})
		if err != nil {
			return fmt.Errorf("%s: cold solve: %w", p.name, err)
		}
		coldMS = append(coldMS, ms)
		a.add("core.solve_cold_ms", ms)
		wms := timed(tr, op, "core.Engine.Solve(warm)", 1, time.Millisecond, func() {
			warm, err = eng.Solve(ctx, prob, core.Options{})
		})
		if err != nil || warm.Report.EDP != cold.Report.EDP {
			return fmt.Errorf("%s: warm solve: EDP %v vs cold %v (%v)", p.name, warm.Report.EDP, cold.Report.EDP, err)
		}
		a.add("core.solve_warm_ms", wms)
	}
	coldMed := median(coldMS)
	if cold.SeedEDP > 0 {
		a.add("analytic.seed_gap", cold.SeedEDP/cold.Report.EDP)
	}

	// One thread, with allocation counts: MemStats deltas are only clean
	// when nothing else in the process allocates meanwhile.
	eng1 := core.NewEngine(0)
	var t1ms float64
	objs, byts := mallocs(func() {
		t1ms = timed(tr, op, "core.Engine.Solve(threads=1)", 1, time.Millisecond, func() {
			_, err = eng1.Solve(ctx, prob, core.Options{Threads: 1})
		})
	})
	if err != nil {
		return fmt.Errorf("%s: threads=1 solve: %w", p.name, err)
	}
	a.add("core.solve_t1_ms", t1ms)
	a.add("core.allocs_per_solve", objs)
	a.add("core.alloc_mb_per_solve", byts/(1<<20))
	wobjs, _ := mallocs(func() { _, err = eng1.Solve(ctx, prob, core.Options{Threads: 1}) })
	a.add("core.allocs_per_warm_solve", wobjs)

	// First incumbent, as Options.Progress reports it.
	var firstMS float64
	t0 := time.Now()
	_, err = core.NewEngine(0).Solve(ctx, prob, core.Options{Progress: func(ev obs.ProgressEvent) {
		if firstMS == 0 && ev.Kind == obs.IncumbentImproved {
			firstMS = msSince(t0)
		}
	}})
	if err != nil {
		return fmt.Errorf("%s: progress solve: %w", p.name, err)
	}
	a.add("core.first_incumbent_ms", firstMS)

	// Anytime quality: EDP at a quarter and a half of the unbounded budget.
	for _, b := range []struct {
		name  string
		share float64
	}{{"core.anytime_gap_b25", 0.25}, {"core.anytime_gap_b50", 0.5}} {
		budget := time.Duration(coldMed * b.share * float64(time.Millisecond))
		r, berr := core.NewEngine(0).Solve(ctx, prob, core.Options{Timeout: budget})
		if berr != nil {
			return fmt.Errorf("%s: %s: %w", p.name, b.name, berr)
		}
		a.add(b.name, r.Report.EDP/cold.Report.EDP)
	}

	// The program's own span tree of a cold solve, folded by stage. Whatever
	// of the call the named stages do not cover — compile, the level and
	// optimize spans' own time, the engine lookup — is "other", so the
	// stages of one call always sum to that call.
	for i := 0; i < 3; i++ {
		ptr := obs.NewTrace()
		traced := timed(tr, op, "core.Engine.Solve(program trace)", 1, time.Millisecond, func() {
			_, err = core.NewEngine(0).Solve(obs.WithTrace(ctx, ptr), prob, core.Options{})
		})
		if err != nil {
			return fmt.Errorf("%s: traced solve: %w", p.name, err)
		}
		stages, err := foldProgramTrace(ptr)
		if err != nil {
			return err
		}
		named := 0.0
		for _, st := range []string{"orderings", "enumerate", "evaluate", "polish"} {
			a.add("core.span."+st+"_ms", stages[st])
			named += stages[st]
		}
		a.add("core.span.other_ms", traced-named)
	}

	// Cost-model calls on the mappings this problem produced.
	ms := []*mapping.Mapping{cold.Mapping, seed}
	ev := sess.NewEvaluator()
	const batch = 2000
	a.add("cost.eval_uncached_ns", timed(tr, op, "cost.Evaluator.EvaluateEDPUncached", batch, time.Nanosecond, func() {
		for i := 0; i < batch; i++ {
			ev.EvaluateEDPUncached(ms[i%2])
		}
	}))
	ev.EvaluateEDP(ms[0])
	ev.EvaluateEDP(ms[1])
	a.add("cost.eval_cached_ns", timed(tr, op, "cost.Evaluator.EvaluateEDP", batch, time.Nanosecond, func() {
		for i := 0; i < batch; i++ {
			ev.EvaluateEDP(ms[i%2])
		}
	}))
	eobjs, _ := mallocs(func() {
		for i := 0; i < 100; i++ {
			ev.EvaluateEDPUncached(ms[i%2])
		}
	})
	a.add("cost.eval_allocs", eobjs/100)
	a.add("cost.lower_bound_ns", timed(tr, op, "cost.Session.LowerBound", batch, time.Nanosecond, func() {
		for i := 0; i < batch; i++ {
			sess.LowerBound(float64(1 + i%64))
		}
	}))
	a.add("cost.report_us", timed(tr, op, "cost.Evaluate", 50, time.Microsecond, func() {
		for i := 0; i < 50; i++ {
			cost.Evaluate(ms[i%2])
		}
	}))
	robjs, _ := mallocs(func() {
		for i := 0; i < 20; i++ {
			cost.Evaluate(ms[i%2])
		}
	})
	a.add("cost.report_allocs", robjs/20)
	if coldMed > 0 {
		a.add("cost.eval_time_share", float64(cold.Stats.Evaluated)*median(a["cost.eval_uncached_ns"])/1e6/coldMed)
	}

	// Serialization of this problem's workload and mapping.
	var mj, wj []byte
	a.add("serde.encode_mapping_us", timed(tr, op, "serde.EncodeMapping", 20, time.Microsecond, func() {
		for i := 0; i < 20; i++ {
			mj, err = serde.EncodeMapping(cold.Mapping)
		}
	}))
	if err != nil {
		return fmt.Errorf("%s: EncodeMapping: %w", p.name, err)
	}
	a.add("serde.mapping_bytes", float64(len(mj)))
	a.add("serde.decode_mapping_us", timed(tr, op, "serde.DecodeMapping", 20, time.Microsecond, func() {
		for i := 0; i < 20; i++ {
			_, err = serde.DecodeMapping(mj, p.w, am)
		}
	}))
	if err != nil {
		return fmt.Errorf("%s: DecodeMapping: %w", p.name, err)
	}
	a.add("serde.encode_checkpoint_us", timed(tr, op, "serde.EncodeCheckpoint", 20, time.Microsecond, func() {
		for i := 0; i < 20; i++ {
			_, err = serde.EncodeCheckpoint("j000001", cold.Mapping, cold.Report.EDP, cold.Report.EDP, cold.Report.EnergyPJ, cold.Report.Cycles)
		}
	}))
	if err != nil {
		return fmt.Errorf("%s: EncodeCheckpoint: %w", p.name, err)
	}
	if wj, err = serde.EncodeWorkload(p.w); err != nil {
		return fmt.Errorf("%s: EncodeWorkload: %w", p.name, err)
	}
	a.add("serde.decode_workload_us", timed(tr, op, "serde.DecodeWorkload", 20, time.Microsecond, func() {
		for i := 0; i < 20; i++ {
			_, err = serde.DecodeWorkload(wj)
		}
	}))
	if err != nil {
		return fmt.Errorf("%s: DecodeWorkload: %w", p.name, err)
	}
	return nil
}

// programEvent is one event of the program's Chrome trace (obs.Trace).
type programEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	TID  int64   `json:"tid"`
}

// programSelfTimes reads a program trace through its public WriteJSON and
// returns each complete span with its self time in ms: its duration minus
// the part of that interval its direct children cover.
func programSelfTimes(t *obs.Trace) ([]programEvent, []float64, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	var doc struct {
		TraceEvents []programEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, nil, fmt.Errorf("program trace: %w", err)
	}
	var evs []programEvent
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			evs = append(evs, e)
		}
	}
	// Within a thread row, a span's parent is the innermost earlier span
	// that contains it; spans that merely overlap are siblings.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Dur > evs[j].Dur
	})
	children := make([][]int, len(evs))
	var stack []int
	for i, e := range evs {
		for len(stack) > 0 {
			p := evs[stack[len(stack)-1]]
			if p.TID == e.TID && e.TS >= p.TS && e.TS+e.Dur <= p.TS+p.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			children[stack[len(stack)-1]] = append(children[stack[len(stack)-1]], i)
		}
		stack = append(stack, i)
	}
	self := make([]float64, len(evs))
	for i, e := range evs {
		covered, end := 0.0, e.TS
		for _, c := range children[i] { // sorted by start
			s, f := evs[c].TS, evs[c].TS+evs[c].Dur
			if s < end {
				s = end
			}
			if f > s {
				covered += f - s
				end = f
			}
		}
		self[i] = (e.Dur - covered) / 1e3
	}
	return evs, self, nil
}

// foldProgramTrace sums the self times of a search's spans by stage name,
// levels merged.
func foldProgramTrace(t *obs.Trace) (map[string]float64, error) {
	evs, self, err := programSelfTimes(t)
	if err != nil {
		return nil, err
	}
	stages := map[string]float64{}
	for i, e := range evs {
		switch e.Name {
		case "orderings", "enumerate", "evaluate", "polish":
			stages[e.Name] += self[i]
		}
	}
	return stages, nil
}

// probeFusion runs the network probes on n.
func probeFusion(ctx context.Context, tr *tracer, n *probeNet, a acc) error {
	op := tr.newOp("probe " + n.name)
	defer tr.end(op)
	am := machine(n.machine)
	var net *network.Network
	var err error
	a.add("network.build_us", timed(tr, op, "network.build+Validate", 10, time.Microsecond, func() {
		for i := 0; i < 10; i++ {
			net = n.mk()
			err = net.Validate()
		}
	}))
	if err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	var res core.NetworkResult
	for i := 0; i < 2; i++ {
		eng := core.NewEngine(0)
		a.add("core.fusion.schedule_ms", timed(tr, op, "core.Engine.SolveNetworkFused", 1, time.Millisecond, func() {
			res, err = eng.SolveNetworkFused(ctx, net, am, core.Options{}, core.FusionOptions{})
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", n.name, err)
		}
		// Members that repeat a problem already compiled — by the fused
		// solver's own Problem.Key dedupe or the Engine's — cost no compile.
		if st := eng.Stats(); st.Hits+st.Compiles > 0 {
			a.add("core.fusion.member_dedupe_share", float64(st.Hits)/float64(st.Hits+st.Compiles))
		}
	}
	a.add("core.fusion.groups_considered", float64(res.GroupsConsidered))
	a.add("core.fusion.groups_pruned", float64(res.GroupsPruned))
	a.add("core.fusion.groups_infeasible", float64(res.GroupsInfeasible))
	a.add("core.fusion.edp_gain", res.UnfusedEDP/res.EDP)

	ptr := obs.NewTrace()
	tr.call(op, "core.Engine.SolveNetworkFused(program trace)", func() {
		_, err = core.NewEngine(0).SolveNetworkFused(obs.WithTrace(ctx, ptr), net, am, core.Options{}, core.FusionOptions{})
	})
	if err != nil {
		return fmt.Errorf("%s: traced: %w", n.name, err)
	}
	evs, self, err := programSelfTimes(ptr)
	if err != nil {
		return err
	}
	for i, e := range evs {
		if strings.HasPrefix(e.Name, "fuse ") {
			a.add("core.fusion.dp_self_ms", self[i])
		}
	}
	return nil
}

// ---- server and journal probes ----

// serveOnce runs one request through the handler with a recorder.
func serveOnce(srv *server.Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// awaitJob polls a job's status through the handler until it is terminal.
func awaitJob(srv *server.Server, id string) (server.JobStatus, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		var st server.JobStatus
		rec := serveOnce(srv, http.MethodGet, "/v1/jobs/"+id, nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return st, fmt.Errorf("job %s status: %w", id, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after a minute", id, st.State)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// probeServer times the handlers of an idle server and one client's warm
// job, with p as the job.
func probeServer(ctx context.Context, tr *tracer, p *probeProblem, a acc) error {
	op := tr.newOp("probe server " + p.name)
	defer tr.end(op)
	wj, err := serde.EncodeWorkload(p.w)
	if err != nil {
		return err
	}
	job := svcJob{Kind: "probe", Row: p.name, Req: server.SubmitRequest{Tenant: "bench", Arch: p.machine, Workload: wj}}
	body, err := json.Marshal(&job.Req)
	if err != nil {
		return err
	}
	s, err := startService("", nil)
	if err != nil {
		return err
	}
	defer s.stop()

	var lastID string
	for i := 0; i < 12; i++ {
		var rec *httptest.ResponseRecorder
		us := timed(tr, op, "server.ServeHTTP(POST /v1/jobs)", 1, time.Microsecond, func() {
			rec = serveOnce(s.srv, http.MethodPost, "/v1/jobs", body)
		})
		var st server.JobStatus
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			return fmt.Errorf("probe submit: status %d: %s", rec.Code, rec.Body.String())
		}
		if _, err := awaitJob(s.srv, st.ID); err != nil {
			return err
		}
		lastID = st.ID
		if i >= 2 { // the first submissions compile the problem
			a.add("server.submit_handler_us", us)
		}
	}
	const n = 200
	a.add("server.status_handler_us", timed(tr, op, "server.ServeHTTP(GET /v1/jobs/{id})", n, time.Microsecond, func() {
		for i := 0; i < n; i++ {
			serveOnce(s.srv, http.MethodGet, "/v1/jobs/"+lastID, nil)
		}
	}))
	a.add("server.statz_handler_us", timed(tr, op, "server.ServeHTTP(GET /statz)", n, time.Microsecond, func() {
		for i := 0; i < n; i++ {
			serveOnce(s.srv, http.MethodGet, "/statz", nil)
		}
	}))

	// One client, warm job, over the loopback listener; and the same
	// problem solved warm on an Engine directly, at the thread count the
	// server gives one job. The difference is what the service adds.
	var idle []float64
	for i := 0; i < 20; i++ {
		jop := tr.newOp("idle job " + p.name)
		out := s.runJob(&job, tr, jop)
		tr.end(jop)
		if out.failedWhy != "" {
			return fmt.Errorf("idle job: %s", out.failedWhy)
		}
		idle = append(idle, out.termMS)
	}
	a.add("server.idle_terminal_ms", median(idle))
	eng := core.NewEngine(0)
	prob := core.Problem{Workload: p.w, Arch: machine(p.machine)}
	var direct []float64
	for i := 0; i < 21; i++ {
		ms := timed(tr, op, "core.Engine.Solve(warm, direct)", 1, time.Millisecond, func() {
			_, err = eng.Solve(ctx, prob, core.Options{Threads: serverJobThreads()})
		})
		if err != nil {
			return err
		}
		if i > 0 {
			direct = append(direct, ms)
		}
	}
	a.add("server.tax_ms", median(idle)-median(direct))
	return nil
}

// serverJobThreads is the thread count a default server.Config gives one
// job: GOMAXPROCS shared among min(GOMAXPROCS, 8) workers.
func serverJobThreads() int {
	procs := runtime.GOMAXPROCS(0)
	return procs / min(procs, 8)
}

// probeJournal times appends of real submit-, checkpoint- and result-sized
// records under each fsync policy, and the replay of what it wrote.
func probeJournal(tr *tracer, workdir string, records [][]byte, a acc) error {
	op := tr.newOp("probe journal")
	defer tr.end(op)
	kinds := []journal.Kind{journal.KindSubmit, journal.KindCheckpoint, journal.KindResult}
	const n = 150
	for _, policy := range []string{journal.FsyncNever, journal.FsyncInterval, journal.FsyncAlways} {
		dir, err := os.MkdirTemp(workdir, "probe-journal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		jr, err := journal.Open(journal.Options{Dir: dir, Fsync: policy})
		if err != nil {
			return err
		}
		a.add("journal.append_"+policy+"_us", timed(tr, op, "journal.Append("+policy+")", n, time.Microsecond, func() {
			for i := 0; i < n && err == nil; i++ {
				err = jr.Append(journal.Record{Kind: kinds[i%3], Job: "j000001", Payload: records[i%len(records)]})
			}
		}))
		if err == nil && policy == journal.FsyncInterval {
			a.add("journal.append_durable_us", timed(tr, op, "journal.AppendDurable", 50, time.Microsecond, func() {
				for i := 0; i < 50 && err == nil; i++ {
					err = jr.AppendDurable(journal.Record{Kind: kinds[i%3], Job: "j000001", Payload: records[i%len(records)]})
				}
			}))
		}
		if cerr := jr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("journal probe (%s): %w", policy, err)
		}
		if policy == journal.FsyncInterval {
			var re *journal.Journal
			a.add("journal.replay_ms", timed(tr, op, "journal.Open(replay)", 1, time.Millisecond, func() {
				re, err = journal.Open(journal.Options{Dir: dir})
			}))
			if err != nil {
				return fmt.Errorf("journal probe replay: %w", err)
			}
			re.Close()
		}
	}
	return nil
}
