// Command sunstone optimizes a tensor-algebra workload for a spatial
// accelerator and prints the best mapping found with its cost report.
//
// Usage examples:
//
//	sunstone -arch simba -net resnet18 -layer conv2_x -batch 16
//	sunstone -arch conventional -workload mttkrp -dataset nell2
//	sunstone -arch conventional -workload conv -dims N=16,K=64,C=64,P=56,Q=56,R=3,S=3
//	sunstone -arch conventional -net inception -layer 1x7_deep -weight-update
//	sunstone -arch simba -net resnet18 -layer conv3_1 -compare
//	sunstone -arch conventional -net resnet18 -all-layers -fuse
//	sunstone -arch conventional -net transformer -all-layers -fuse
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"sunstone"
	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/faults"
	"sunstone/internal/profiling"
)

var (
	archName  = flag.String("arch", "conventional", "architecture: conventional | simba | diannao | tiny")
	workload  = flag.String("workload", "", "kernel: conv | mttkrp | ttmc | sddmm | mmc | tcl | fc")
	dataset   = flag.String("dataset", "nell2", "dataset for mttkrp/ttmc: nell2 | netflix | poisson1; for sddmm: bcsstk17 | cant")
	net       = flag.String("net", "", "layer table: resnet18 | inception | alexnet | vgg16 | transformer (-all-layers only)")
	layer     = flag.String("layer", "", "layer name from -net (empty = list layers)")
	allLayers = flag.Bool("all-layers", false, "schedule every layer of -net and print network totals")
	fuse      = flag.Bool("fuse", false, "with -all-layers: fusion-aware scheduling — fusible layer groups keep their intermediates resident on-chip, and the best fusion cut by total EDP is reported against the unfused baseline")
	maxGroup  = flag.Int("max-group", 0, "with -fuse: longest fused group in chain positions (0 = default 4)")
	batch     = flag.Int("batch", 16, "batch size for -net layers")
	wu        = flag.Bool("weight-update", false, "use the weight-update (training) form of the layer")
	dims      = flag.String("dims", "", "explicit conv dims, e.g. N=16,K=64,C=64,P=56,Q=56,R=3,S=3")
	wfile     = flag.String("workload-file", "", "load the workload from a JSON description")
	describe  = flag.String("describe", "", "load the workload from a paper-style textual description file")
	afile     = flag.String("arch-file", "", "load the architecture from a JSON description")
	saveMap   = flag.String("save-mapping", "", "write the best mapping to this JSON file")
	objective = flag.String("objective", "edp", "figure of merit: edp | energy | delay | ed2p")
	beam      = flag.Int("beam", 0, "beam width (0 = default)")
	threads   = flag.Int("threads", 0, "worker goroutines per search — expansion, evaluation and polish fan-outs (0 = all cores); results are identical at any value")
	compare   = flag.Bool("compare", false, "also run the baseline mappers on the same problem")
	showBreak = flag.Bool("breakdown", false, "print the per-component energy breakdown")
	accesses  = flag.Bool("accesses", false, "print per-level, per-tensor access counts")
	explain   = flag.Bool("explain", false, "print the workload's reuse table, pruned loop orderings, and the mapping's loop nest")
	verify    = flag.Bool("verify", false, "functionally execute the mapping and check it against the reference result")
	timeout   = flag.Duration("timeout", 0, "wall-clock budget per search, e.g. 500ms or 10s (0 = unbounded); on expiry the best mapping found so far is reported")
	contErr   = flag.Bool("continue-on-error", false, "with -all-layers: keep scheduling the remaining layers after one fails instead of failing fast")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")
	traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev) of the search's phases to this file")
	progress  = flag.Bool("progress", false, "stream live search progress (phases, incumbent improvements) to stderr")
	baseList  = flag.String("baselines", "timeloop-fast,dmaze-fast,interstellar,cosa", "with -compare: comma-separated baseline registry names, or 'all'")
	retries   = flag.Int("retries", 0, "set Options.Retry with this many primary retries at backed-off budgets, then the innermost-fit fallback (0 = plain single-attempt search)")
	faultSpec = flag.String("fault-spec", "", "arm deterministic fault injection, e.g. 'evaluate:panic:0.3', 'compile:error:0.1,seed=42', or 'all:mixed:0.3' (chaos testing; pair with -retries)")
)

// retryPolicy translates -retries into Options.Retry; nil means the flag was
// not used and every search is a single attempt.
func retryPolicy() *sunstone.RetryPolicy {
	if *retries <= 0 {
		return nil
	}
	return &sunstone.RetryPolicy{Retries: *retries}
}

// armFaults activates the -fault-spec injector for the whole invocation.
func armFaults() {
	if *faultSpec == "" {
		return
	}
	inj, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	faults.Activate(inj)
	fmt.Fprintf(os.Stderr, "sunstone: fault injection armed (%s)\n", *faultSpec)
}

// printAttempts summarizes a resilient result's attempt record on stderr.
func printAttempts(res sunstone.Result) {
	if len(res.Attempts) == 0 {
		return
	}
	var parts []string
	for _, at := range res.Attempts {
		status := "ok"
		if at.Err != nil {
			status = "failed"
		}
		parts = append(parts, fmt.Sprintf("%s(%s)", at.Mapper, status))
	}
	fmt.Fprintf(os.Stderr, "sunstone: %d attempt(s): %s\n", len(res.Attempts), strings.Join(parts, " -> "))
	if res.FallbackUsed != "" {
		fmt.Fprintf(os.Stderr, "sunstone: degraded to fallback mapper %q\n", res.FallbackUsed)
	}
}

// searchContext returns the context every search in this invocation runs
// under: the -trace collector installed when requested, plus a flush function
// to write the collected spans at exit.
func searchContext() (context.Context, func()) {
	ctx := context.Background()
	if *traceOut == "" {
		return ctx, func() {}
	}
	tr := sunstone.NewTrace()
	return sunstone.WithTrace(ctx, tr), func() {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sunstone: trace written to %s (%d events)\n", *traceOut, tr.Events())
	}
}

// progressTicker returns the Options.Progress callback for -progress: a live
// stderr ticker of phase boundaries and incumbent improvements.
func progressTicker() sunstone.ProgressFunc {
	if !*progress {
		return nil
	}
	return func(ev sunstone.ProgressEvent) {
		switch ev.Kind {
		case sunstone.IncumbentImproved:
			fmt.Fprintf(os.Stderr, "[%7.3fs] %-20s best %-12.4e %d generated, %d evaluated\n",
				ev.Elapsed.Seconds(), ev.Phase, ev.Score, ev.Generated, ev.Evaluated)
		case sunstone.PhaseStarted:
			fmt.Fprintf(os.Stderr, "[%7.3fs] > %s\n", ev.Elapsed.Seconds(), ev.Phase)
		case sunstone.PhaseFinished:
			fmt.Fprintf(os.Stderr, "[%7.3fs] < %s  (%d generated, %d evaluated)\n",
				ev.Elapsed.Seconds(), ev.Phase, ev.Generated, ev.Evaluated)
		}
	}
}

// searchOptions translates the search flags into the Options every search of
// the invocation runs under — the single-workload search and each layer of
// -all-layers alike.
func searchOptions() (sunstone.Options, error) {
	obj, err := core.ParseObjective(*objective)
	if err != nil {
		return sunstone.Options{}, err
	}
	return sunstone.Options{
		Objective: obj, BeamWidth: *beam, Threads: *threads, Timeout: *timeout,
		Progress: progressTicker(),
		Retry:    retryPolicy(),
	}, nil
}

// pickBaselines resolves the -baselines list against the registry; the
// mappers come from eng.Baselines, so tools that support session injection
// share the cost sessions already compiled for the main search.
func pickBaselines(eng *sunstone.Engine) ([]sunstone.NamedBaseline, error) {
	all := eng.Baselines()
	if *baseList == "all" {
		return all, nil
	}
	byName := map[string]sunstone.NamedBaseline{}
	var known []string
	for _, nb := range all {
		byName[nb.Name] = nb
		known = append(known, nb.Name)
	}
	var out []sunstone.NamedBaseline
	for _, name := range strings.Split(*baseList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		nb, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown baseline %q (have: %s, or 'all')", name, strings.Join(known, ", "))
		}
		out = append(out, nb)
	}
	return out, nil
}

func main() {
	flag.Parse()
	stopProf, perr := profiling.Start(*cpuProf, *memProf)
	if perr != nil {
		fatal(perr)
	}
	defer stopProf()
	armFaults()
	// One Engine per invocation: the main search, -all-layers network
	// scheduling, and the -compare baselines all share its compiled
	// per-problem artifacts.
	eng := sunstone.NewEngine()
	a, err := pickArch(*archName, *afile)
	if err != nil {
		fatal(err)
	}
	opt, err := searchOptions()
	if err != nil {
		fatal(err)
	}
	if *allLayers {
		runAllLayers(os.Stdout, eng, a, opt)
		return
	}
	var w *sunstone.Workload
	switch {
	case *describe != "":
		data, rerr := os.ReadFile(*describe)
		if rerr != nil {
			fatal(rerr)
		}
		w, err = sunstone.ParseWorkload(string(data))
	case *wfile != "":
		data, rerr := os.ReadFile(*wfile)
		if rerr != nil {
			fatal(rerr)
		}
		w, err = sunstone.DecodeWorkload(data)
	default:
		w, err = pickWorkload()
	}
	if err != nil {
		fatal(err)
	}

	ctx, flushTrace := searchContext()
	res, err := eng.Solve(ctx, sunstone.Problem{Workload: w, Arch: a}, opt)
	if err != nil {
		fatal(err)
	}
	printAttempts(res)
	fmt.Printf("workload: %s\narch: %s (%d MACs)\n\n", w.Name, a.Name, a.TotalMACs())
	fmt.Printf("best mapping:\n%s\n\n", indent(res.Mapping.String()))
	fmt.Printf("EDP      %.4e pJ*cycle\nenergy   %.4e pJ\ncycles   %.0f\nsearch   %v, %d candidates, %d orderings, %d threads\n",
		res.Report.EDP, res.Report.EnergyPJ, res.Report.Cycles,
		res.Elapsed, res.SpaceSize, res.OrderingsConsidered, effectiveThreads())
	st := res.Stats
	fmt.Printf("flow     %d generated = %d pruned (%d order, %d tile, %d unroll, %d analytic) + %d deduped + %d evaluated + %d skipped\n",
		st.Generated, st.Pruned(), st.PrunedOrdering, st.PrunedTiling, st.PrunedUnrolling,
		st.BoundPruned, st.Deduped, st.Evaluated, st.Skipped)
	if res.SeedEDP > 0 {
		fmt.Printf("seed     EDP %.4e analytic one-shot (%.2fx final)\n",
			res.SeedEDP, res.SeedEDP/res.Report.EDP)
	}
	if total := st.EvalCacheHits + st.EvalCacheMisses; total > 0 {
		fmt.Printf("cache    %.1f%% hit rate (%d/%d); beam cut %d, bound cut %d\n",
			100*float64(st.EvalCacheHits)/float64(total), st.EvalCacheHits, total, st.PrunedBeam, st.PrunedBound)
	}
	if res.Stopped != sunstone.StopComplete {
		fmt.Printf("stopped  %s — reporting the best mapping found before the signal\n", res.Stopped)
	}
	for _, cerr := range res.CandidateErrors {
		fmt.Fprintln(os.Stderr, "sunstone: candidate error:", cerr)
	}
	if *explain {
		fmt.Printf("\ninferred reuse (Table III view):\n%s", indent(w.ReuseTable()))
		fmt.Printf("\npruned loop orderings (Fig. 4 view):\n%s", indent(sunstone.ExplainOrderings(w)))
		fmt.Printf("\nmapped loop nest:\n%s", indent(res.Mapping.PseudoCode()))
	}
	if *verify {
		ok, verr := sunstone.VerifyMapping(res.Mapping)
		if verr != nil {
			fatal(verr)
		}
		if ok {
			fmt.Println("\nverification: mapped execution matches the reference result")
		} else {
			fmt.Println("\nverification: MISMATCH — mapped execution differs from the reference!")
			os.Exit(1)
		}
	}
	if *saveMap != "" {
		data, merr := sunstone.EncodeMapping(res.Mapping)
		if merr != nil {
			fatal(merr)
		}
		if werr := os.WriteFile(*saveMap, data, 0o644); werr != nil {
			fatal(werr)
		}
		fmt.Printf("mapping saved to %s\n", *saveMap)
	}
	if *showBreak {
		fmt.Printf("\nenergy breakdown:\n%s", indent(res.Report.BreakdownString()))
	}
	if *accesses {
		fmt.Printf("\naccess counts:\n%s", indent(res.Report.AccessTable()))
	}
	if *compare {
		bls, berr := pickBaselines(eng)
		if berr != nil {
			fatal(berr)
		}
		fmt.Println("\nbaselines:")
		for _, nb := range bls {
			// Baselines honor the same -timeout budget via MapContext, so
			// the comparison is wall-clock fair; they also inherit the
			// -trace collector, so each tool's run is one trace region.
			bctx := ctx
			if *timeout > 0 {
				var cancel context.CancelFunc
				bctx, cancel = context.WithTimeout(bctx, *timeout)
				defer cancel()
			}
			r := nb.Mapper.MapContext(bctx, w, a)
			note := ""
			if r.Stopped != sunstone.StopComplete {
				note = " [stopped: " + r.Stopped.String() + "]"
			}
			if !r.Valid {
				fmt.Printf("  %-10s INVALID (%s) in %v%s\n", nb.Mapper.Name(), r.InvalidReason, r.Elapsed.Round(1e6), note)
				continue
			}
			fmt.Printf("  %-10s EDP %.4e (%.2fx Sunstone) in %v%s\n",
				nb.Mapper.Name(), r.Report.EDP, r.Report.EDP/res.Report.EDP, r.Elapsed.Round(1e6), note)
		}
	}
	flushTrace()
}

// runAllLayers schedules the whole -net table through eng and prints network
// totals to out; repeated shapes compile their problem artifacts once. Without
// -fuse it is the MaxGroup 1 cut of the same scheduler: one independent
// search per layer, printed one line per layer with its repeat count.
func runAllLayers(out io.Writer, eng *sunstone.Engine, a *sunstone.Arch, opt sunstone.Options) {
	var irNet *sunstone.Network
	var err error
	if *net == "transformer" {
		// The GEMM-chain preset is IR-native (no ConvShape table); -batch
		// does not apply — the chain is one transformer block's projections.
		irNet = sunstone.TransformerChain(512, 512, 2048)
	} else {
		table, repeats, ok := layerTable(*net)
		if !ok {
			fatal(fmt.Errorf("-all-layers needs -net resnet18|inception|alexnet|vgg16|transformer"))
		}
		if irNet, err = sunstone.FromConvShapes(*net, table, *batch, repeats); err != nil {
			fatal(err)
		}
	}
	fopt := sunstone.FusionOptions{MaxGroup: 1, ContinueOnError: *contErr}
	if *fuse {
		if opt.Objective != sunstone.MinEDP {
			fatal(core.ErrFusionObjective)
		}
		fopt.MaxGroup = *maxGroup
	}
	ctx, flushTrace := searchContext()
	sched, err := eng.ScheduleNetworkFused(ctx, irNet, a, opt, fopt)
	fmt.Fprintf(out, "%-12s %-3s %-12s %-12s %s\n", "layer", "x", "EDP", "energy pJ", "cycles")
	// A schedule holds one entry per chain position. Unfused, a layer's
	// occurrences share one result and print as one line with their count;
	// fused, each occurrence may have been mapped under a different residency.
	pos := irNet.Positions()
	for i, l := range sched.Layers {
		count := 1
		if !*fuse {
			if pos[i].Occ > 0 {
				continue
			}
			count = irNet.Layers[pos[i].Layer].Repeats
		}
		if l.Err != nil {
			fmt.Fprintf(out, "%-12s FAILED: %v\n", l.Layer, l.Err)
			continue
		}
		note := ""
		if l.Result.Stopped != sunstone.StopComplete {
			note = "  [stopped: " + l.Result.Stopped.String() + "]"
		}
		if l.Result.FallbackUsed != "" {
			note += "  [fallback: " + l.Result.FallbackUsed + "]"
		} else if len(l.Result.Attempts) > 1 {
			note += fmt.Sprintf("  [%d attempts]", len(l.Result.Attempts))
		}
		fmt.Fprintf(out, "%-12s %-3d %-12.3e %-12.3e %.0f%s\n",
			l.Layer, count, l.Result.Report.EDP, l.Result.Report.EnergyPJ, l.Result.Report.Cycles, note)
	}
	if *fuse && sched.Failed == 0 {
		fmt.Fprintf(out, "\nfusion cut (%d groups):\n", len(sched.Groups))
		for _, g := range sched.Groups {
			kind := "unfused"
			if g.End-g.Start > 1 {
				kind = "fused @" + a.Levels[g.PinLevel].Name
			}
			fmt.Fprintf(out, "  [%2d,%2d) %-10s %-40s %.3e pJ  %.3e cycles\n",
				g.Start, g.End, kind, strings.Join(g.Layers, "+"), g.EnergyPJ, g.Cycles)
		}
		fmt.Fprintf(out, "unfused EDP %.4e -> fused EDP %.4e (%.2fx better)\n",
			sched.UnfusedEDP, sched.EDP, sched.UnfusedEDP/sched.EDP)
	}
	fmt.Fprintf(out, "\nnetwork totals: %.4e pJ, %.3e cycles, EDP %.4e (scheduled in %v",
		sched.TotalEnergyPJ, sched.TotalCycles, sched.EDP, sched.Elapsed.Round(1e6))
	if sched.Failed > 0 {
		fmt.Fprintf(out, "; %d layer(s) failed, totals cover the rest", sched.Failed)
	}
	fmt.Fprintln(out, ")")
	flushTrace()
	if err != nil {
		fatal(err)
	}
}

// pickArch resolves the architecture: the -arch-file document when given,
// the -arch preset otherwise.
func pickArch(name, file string) (*sunstone.Arch, error) {
	if file == "" {
		return arch.Preset(name)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return sunstone.DecodeArch(data)
}

// layerTable resolves a -net conv layer table and its per-shape repeat counts
// (nil = once each).
func layerTable(name string) (table []sunstone.ConvShape, repeats []int, ok bool) {
	switch name {
	case "resnet18":
		return sunstone.ResNet18Layers, sunstone.ResNet18Repeats(), true
	case "inception":
		return sunstone.InceptionV3Layers, nil, true
	case "alexnet":
		return sunstone.AlexNetLayers, nil, true
	case "vgg16":
		return sunstone.VGG16Layers, nil, true
	}
	return nil, nil, false
}

func pickWorkload() (*sunstone.Workload, error) {
	if *net != "" {
		return pickLayer()
	}
	switch *workload {
	case "conv":
		d, err := parseDims(*dims, []string{"N", "K", "C", "P", "Q", "R", "S"})
		if err != nil {
			return nil, err
		}
		return sunstone.Conv2D("conv", d["N"], d["K"], d["C"], d["P"], d["Q"], d["R"], d["S"], 1, 1), nil
	case "mttkrp":
		ds, err := pickTensorDataset(*dataset)
		if err != nil {
			return nil, err
		}
		return sunstone.MTTKRP("mttkrp_"+ds.name, ds.i, ds.j, ds.k, 32), nil
	case "ttmc":
		ds, err := pickTensorDataset(*dataset)
		if err != nil {
			return nil, err
		}
		return sunstone.TTMc("ttmc_"+ds.name, ds.i, ds.j, ds.k, 8), nil
	case "sddmm":
		switch *dataset {
		case "bcsstk17":
			return sunstone.SDDMM("sddmm_bcsstk17", 10974, 10974, 512), nil
		case "cant":
			return sunstone.SDDMM("sddmm_cant", 62451, 62451, 512), nil
		}
		return nil, fmt.Errorf("unknown sddmm dataset %q", *dataset)
	case "mmc":
		return sunstone.MMc("attention_mmc", 512, 64, 512, 64), nil
	case "tcl":
		return sunstone.TCL("tcl_vgg", 512, 7, 7, 32, 32, 32), nil
	case "fc":
		d, err := parseDims(*dims, []string{"N", "K", "C"})
		if err != nil {
			return nil, err
		}
		return sunstone.FC("fc", d["N"], d["K"], d["C"]), nil
	case "":
		return nil, fmt.Errorf("pick a -workload or a -net layer (see -h)")
	}
	return nil, fmt.Errorf("unknown workload %q", *workload)
}

type tdataset struct {
	name    string
	i, j, k int
}

func pickTensorDataset(name string) (tdataset, error) {
	switch name {
	case "nell2":
		return tdataset{"nell2", 12092, 9184, 28818}, nil
	case "netflix":
		return tdataset{"netflix", 480189, 17770, 2182}, nil
	case "poisson1":
		return tdataset{"poisson1", 1024, 1024, 1024}, nil
	}
	return tdataset{}, fmt.Errorf("unknown dataset %q", name)
}

func pickLayer() (*sunstone.Workload, error) {
	table, _, ok := layerTable(*net)
	if !ok {
		return nil, fmt.Errorf("unknown net %q", *net)
	}
	if *layer == "" {
		var names []string
		for _, cs := range table {
			names = append(names, cs.Name)
		}
		return nil, fmt.Errorf("pick a -layer from %s: %s", *net, strings.Join(names, ", "))
	}
	for _, cs := range table {
		if cs.Name == *layer {
			if *wu {
				return cs.WeightUpdate(*batch), nil
			}
			return cs.Inference(*batch), nil
		}
	}
	return nil, fmt.Errorf("layer %q not in %s", *layer, *net)
}

func parseDims(s string, required []string) (map[string]int, error) {
	out := map[string]int{}
	if s == "" {
		return nil, fmt.Errorf("-dims required, e.g. -dims %s=..,...", required[0])
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad dim %q", kv)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad dim size %q", kv)
		}
		out[strings.ToUpper(parts[0])] = n
	}
	for _, r := range required {
		if out[r] == 0 {
			return nil, fmt.Errorf("missing dim %s", r)
		}
	}
	return out, nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sunstone:", err)
	os.Exit(2)
}

// effectiveThreads reports the worker-pool size a search actually uses: the
// -threads value when set, otherwise every available core (the library's
// Threads<=0 default).
func effectiveThreads() int {
	if *threads > 0 {
		return *threads
	}
	return runtime.GOMAXPROCS(0)
}
