package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// printMetrics prints one workload's metrics, one per line, by name and
// unit.
func printMetrics(w io.Writer, workload string, m metricSet) {
	for _, name := range m.sortedNames() {
		fmt.Fprintf(w, "%-16s %-34s %16.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

// fingerprint states the machine and tree a report was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// WorkdirFS is the filesystem under -workdir. On tmpfs an fsync costs
	// nothing, so service-durable understates the price of -data-dir there.
	WorkdirFS string `json:"workdir_fs"`
	Commit    string `json:"commit"`
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func newFingerprint(workdir string) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", WorkdirFS: fsName(workdir), Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// runRecord is one child run as the suite keeps it.
type runRecord struct {
	Seed      int64     `json:"seed"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	WallS     float64   `json:"wall_s"`
	Metrics   metricSet `json:"metrics"`
}

type workloadReport struct {
	Name   string      `json:"name"`
	Runs   []runRecord `json:"runs"`             // untraced: the end-to-end metrics
	Traced []runRecord `json:"traced,omitempty"` // -trace 1: the per-layer metrics
}

// report is what -out writes and -compare reads.
type report struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Workloads   []workloadReport `json:"workloads"`
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// values collects one metric over runs.
func values(runs []runRecord, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// runChild re-executes this binary for one run of one workload — a cold
// process every time — and parses the result line it ends with.
func runChild(c *config, workload string, seed int64, trace int) (runRecord, error) {
	cmd, err := selfCommand(c, workload, seed, "-trace", fmt.Sprint(trace))
	if err != nil {
		return runRecord{}, err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if perr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); perr != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: no result line (%v; run: %v)", workload, seed, perr, runErr)
	}
	rec := runRecord{Seed: seed, Attempted: res.Attempted, Failed: res.Failed, WallS: wall, Metrics: res.Metrics}
	if runErr != nil || !res.Correct {
		return rec, fmt.Errorf("%s seed %d: %d of %d failed (%v)", workload, seed, res.Failed, res.Attempted, runErr)
	}
	return rec, nil
}

// runSuite runs every workload c.runs times (untraced), then once traced
// when c.trace is set. Runs of different workloads alternate, so slow drift
// of the machine lands on all of them alike.
func runSuite(c *config) (*report, error) {
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Fingerprint: newFingerprint(c.workdir), Seed: c.seed, Seconds: c.seconds}
	for _, w := range workloadNames {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: w})
	}
	var failed []string
	run := func(trace int, i int) {
		for wi := range rep.Workloads {
			w := &rep.Workloads[wi]
			rec, err := runChild(c, w.Name, c.seed+int64(i), trace)
			if err != nil {
				failed = append(failed, err.Error())
				fmt.Fprintln(os.Stderr, "bench: FAILED", err)
			}
			if rec.Metrics == nil {
				continue
			}
			if trace == 0 {
				w.Runs = append(w.Runs, rec)
			} else {
				w.Traced = append(w.Traced, rec)
			}
			fmt.Fprintf(os.Stderr, "bench: %-16s run %d/%d trace=%d seed=%d: %d ops, %d failed, %.1fs\n",
				w.Name, i+1, c.runs, trace, rec.Seed, rec.Attempted, rec.Failed, rec.WallS)
		}
	}
	for i := 0; i < c.runs; i++ {
		run(0, i)
	}
	if c.trace != 0 {
		run(1, 0)
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("%d runs failed a check: %s", len(failed), strings.Join(failed, "; "))
	}
	return rep, nil
}

// printReport prints every metric by name and unit, one row per workload.
func printReport(w io.Writer, rep *report) {
	fp := rep.Fingerprint
	fmt.Fprintf(w, "machine: %s, %d cpus (GOMAXPROCS %d), %s, linux %s, workdir on %s, commit %s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Kernel, fp.WorkdirFS, fp.Commit)
	if fp.WorkdirFS == "tmpfs" {
		fmt.Fprintln(w, "note: the workdir is on tmpfs, where fsync is free: service-durable understates the cost of -data-dir")
	}
	fmt.Fprintf(w, "seed %d, %.3g s scale\n\n", rep.Seed, rep.Seconds)
	section := func(title string, specs []metricSpec, runs func(*workloadReport) []runRecord) {
		any := false
		for i := range rep.Workloads {
			any = any || len(runs(&rep.Workloads[i])) > 0
		}
		if !any {
			return
		}
		fmt.Fprintf(w, "== %s ==\n", title)
		fmt.Fprintf(w, "%-34s %-10s %-16s %14s %12s %14s %14s %8s %4s\n", "metric", "unit", "workload", "median", "mad", "q1", "q3", "spread", "n")
		for _, spec := range specs {
			for i := range rep.Workloads {
				wl := &rep.Workloads[i]
				xs := values(runs(wl), spec.Name)
				if len(xs) == 0 {
					continue
				}
				q1, q3 := quartiles(xs)
				fmt.Fprintf(w, "%-34s %-10s %-16s %14.6g %12.4g %14.6g %14.6g %7.2f%% %4d\n",
					spec.Name, spec.Unit, wl.Name, median(xs), mad(xs), q1, q3, 100*spreadShare(xs), len(xs))
			}
		}
		fmt.Fprintln(w)
	}
	section("end-to-end (untraced runs)", endToEndSpecs, func(w *workloadReport) []runRecord { return w.Runs })
	section("per-layer (traced run)", perLayer, func(w *workloadReport) []runRecord { return w.Traced })
	for i := range rep.Workloads {
		wl := &rep.Workloads[i]
		att, fail := 0, 0
		for _, r := range append(append([]runRecord{}, wl.Runs...), wl.Traced...) {
			att += r.Attempted
			fail += r.Failed
		}
		fmt.Fprintf(w, "%-16s failed_share %d/%d\n", wl.Name, fail, att)
	}
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// suite is the default mode: run everything, print it, optionally save it.
func suite(c *config) error {
	rep, err := runSuite(c)
	if rep != nil {
		printReport(os.Stdout, rep)
		if c.out != "" {
			if werr := writeReport(c.out, rep); werr != nil {
				return werr
			}
		}
	}
	return err
}

// ---- comparison ----

// Verdicts of one (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// winShare is the share of (old, new) pairs in which new is better; ties
// count for neither side.
func winShare(spec metricSpec, old, new []float64) (wins, losses float64) {
	var w, l, n float64
	for _, o := range old {
		for _, x := range new {
			n++
			better := x < o
			if spec.Better == "higher" {
				better = x > o
			}
			if better {
				w++
			} else if x != o {
				l++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return w / n, l / n
}

// judge compares a metric's runs on two trees. A regression is a median
// worse by more than the metric's bound. Where the run-to-run spread is
// wider than the bound the verdict is unresolved, not same — unless every
// run of one side beats every run of the other. A gain needs nine tenths
// of the pairs and medians further apart than the old side's own quartiles.
func judge(spec metricSpec, old, new []float64) string {
	if len(old) == 0 || len(new) == 0 {
		return verdictUnresolved
	}
	wins, losses := winShare(spec, old, new)
	worse := worsening(spec, median(old), median(new))
	spread := math.Max(spreadShare(old), spreadShare(new))
	switch {
	case wins == 1 && worse < 0:
		return verdictBetter
	case losses == 1 && worse > spec.Bound:
		return verdictWorse
	case spread > spec.Bound && spec.Bound > 0 && len(old) > 1:
		return verdictUnresolved
	case worse > spec.Bound:
		return verdictWorse
	case wins >= 0.9 && -worse > spreadShare(old):
		return verdictBetter
	}
	return verdictSame
}

// compareReports prints one row per (workload, metric): both medians with
// quartiles and sample counts, the ratio with its base, and the verdict. It
// returns the rows judged worse.
func compareReports(w io.Writer, old, new *report) (worse []string) {
	fmt.Fprintf(w, "old: %s @ %s   new: %s @ %s\n", old.Fingerprint.CPU, old.Fingerprint.Commit, new.Fingerprint.CPU, new.Fingerprint.Commit)
	if old.Fingerprint.CPU != new.Fingerprint.CPU || old.Fingerprint.NProc != new.Fingerprint.NProc ||
		old.Fingerprint.WorkdirFS != new.Fingerprint.WorkdirFS || old.Seconds != new.Seconds {
		fmt.Fprintln(w, "warning: the two reports come from different machines or scales; timings are not comparable")
	}
	fmt.Fprintf(w, "%-16s %-30s %-9s %38s %38s %22s %s\n", "workload", "metric", "unit", "old median [q1, q3] n", "new median [q1, q3] n", "new/old (base old)", "verdict")
	cell := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d", median(xs), q1, q3, len(xs))
	}
	rows := func(specs []metricSpec, runs func(*workloadReport) []runRecord, bounded bool) {
		for _, wl := range workloadNames {
			ow, nw := old.workload(wl), new.workload(wl)
			if ow == nil || nw == nil {
				continue
			}
			for _, spec := range specs {
				ox, nx := values(runs(ow), spec.Name), values(runs(nw), spec.Name)
				if len(ox) == 0 || len(nx) == 0 {
					continue
				}
				verdict := "-" // per-layer metrics carry no bound
				if bounded {
					verdict = judge(spec, ox, nx)
				} else if spec.Unit == "count" && median(ox) != median(nx) {
					verdict = "changed"
				}
				ratio := "n/a"
				if mo := median(ox); mo != 0 {
					ratio = fmt.Sprintf("%.4f of %.6g", median(nx)/mo, mo)
				}
				fmt.Fprintf(w, "%-16s %-30s %-9s %38s %38s %22s %s\n", wl, spec.Name, spec.Unit, cell(ox), cell(nx), ratio, verdict)
				if verdict == verdictWorse {
					worse = append(worse, wl+" "+spec.Name)
				}
			}
		}
	}
	rows(endToEndSpecs, func(w *workloadReport) []runRecord { return w.Runs }, true)
	rows(perLayer, func(w *workloadReport) []runRecord { return w.Traced }, false)
	return worse
}

func compareFiles(oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	new, err := readReport(newPath)
	if err != nil {
		return err
	}
	if worse := compareReports(os.Stdout, old, new); len(worse) > 0 {
		return fmt.Errorf("%d regressions: %s", len(worse), strings.Join(worse, ", "))
	}
	return nil
}

// ---- A/A ----

// exactCounters are the per-layer metrics that must repeat exactly between
// two runs of the same tree: the search's flow counters.
var exactCounters = []string{
	"core.generated", "core.evaluated", "core.pruned_ordering", "core.pruned_tiling",
	"core.pruned_unrolling", "core.bound_pruned", "core.deduped", "core.pruned_beam",
	"order.kept", "tile.nodes_visited", "unroll.nodes_visited",
}

// selfcheck runs the whole suite twice on this tree and fails if any
// end-to-end median differs by more than its own bound, or any exact
// counter (and edp_geomean, which is one) differs at all.
func selfcheck(c *config) error {
	c.trace = 1
	var sets [2]*report
	for i := range sets {
		fmt.Fprintf(os.Stderr, "bench: selfcheck pass %c\n", 'A'+i)
		rep, err := runSuite(c)
		if err != nil {
			return err
		}
		sets[i] = rep
	}
	a, b := sets[0], sets[1]
	var bad []string
	fmt.Printf("%-16s %-30s %-9s %16s %16s %9s %8s  %s\n", "workload", "metric", "unit", "A median", "B median", "B/A-1", "bound", "ok")
	for _, wl := range workloadNames {
		aw, bw := a.workload(wl), b.workload(wl)
		for _, spec := range endToEndSpecs {
			ma, mb := median(values(aw.Runs, spec.Name)), median(values(bw.Runs, spec.Name))
			diff := math.Abs(mb-ma) / math.Abs(ma)
			ok := diff <= spec.Bound
			if spec.Name == "edp_geomean" {
				ok = ma == mb
			}
			fmt.Printf("%-16s %-30s %-9s %16.6g %16.6g %+8.2f%% %7.3g%%  %v\n", wl, spec.Name, spec.Unit, ma, mb, 100*(mb/ma-1), 100*spec.Bound, ok)
			if !ok {
				bad = append(bad, wl+" "+spec.Name)
			}
		}
		for _, name := range exactCounters {
			ma, mb := median(values(aw.Traced, name)), median(values(bw.Traced, name))
			ok := ma == mb
			fmt.Printf("%-16s %-30s %-9s %16.6g %16.6g %9s %8s  %v\n", wl, name, "count", ma, mb, "", "exact", ok)
			if !ok {
				bad = append(bad, wl+" "+name)
			}
		}
	}
	if c.out != "" {
		if err := writeReport(c.out, b); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same tree disagree on %s", strings.Join(bad, ", "))
	}
	fmt.Println("selfcheck: the two passes agree")
	return nil
}
