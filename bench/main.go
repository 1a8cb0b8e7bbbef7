// Command bench is the repository's one benchmark harness: it drives the
// mapper library and the sunstoned job service through four named workloads,
// checks every output, and reports the end-to-end and per-layer metrics
// BENCHMARK.json names. See README.md in this directory.
//
//	go run ./bench                       full suite, each run in a cold child process
//	go run ./bench -quick                the same at 1/10 scale, 2 runs
//	go run ./bench -trace 1              adds the traced run per workload
//	go run ./bench -selfcheck            the suite twice on this tree (A/A)
//	go run ./bench -compare a.json b.json
//	go run ./bench --workload cold-layers --seed 3 --seconds 20 --trace 0
//
// The last form is one run in this process; it is what the suite re-executes
// and what the benchmark driver calls. Its last stdout line is the result
// as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	setupOnly bool
	outDir    string
	workdir   string

	runs      int
	quick     bool
	out       string
	selfcheck bool
	compare   bool
}

// lenient reports whether the run is scaled below the frozen counts. The
// frozen counts give every reported percentile its ten samples beyond; a
// down-scaled look (-quick, the tests) cannot, and says so instead of
// failing.
func (c *config) lenient() bool { return c.seconds < nominalSeconds }

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "run this one workload in this process (default: the whole suite, one child process per run)")
	flag.Int64Var(&c.seed, "seed", 1, "seed of every generated input; run i of a suite uses seed+i")
	flag.Float64Var(&c.seconds, "seconds", nominalSeconds, "run length the fixed operation counts are scaled to")
	flag.IntVar(&c.trace, "trace", 0, "1: traced run (per-layer metrics, bench/out/trace-<workload>.json); in suite mode, traced runs follow the untraced ones")
	flag.BoolVar(&c.setupOnly, "setup-only", false, "internal: do the workload's set-up, then exit (timed by the parent for setup_s)")
	flag.StringVar(&c.outDir, "outdir", filepath.Join("bench", "out"), "directory for traces and scratch files")
	flag.StringVar(&c.workdir, "workdir", "", "directory for the durable workload's journal (default <outdir>/work)")
	flag.IntVar(&c.runs, "runs", 10, "suite: untraced runs per workload")
	flag.BoolVar(&c.quick, "quick", false, "suite: 1/10 scale and 2 runs, for a fast look")
	flag.StringVar(&c.out, "out", "", "suite: also write the report as JSON to this file")
	flag.BoolVar(&c.selfcheck, "selfcheck", false, "run the suite twice on this tree and fail if the two disagree")
	flag.BoolVar(&c.compare, "compare", false, "compare two -out reports: -compare old.json new.json")
	flag.Parse()
	if c.workdir == "" {
		c.workdir = filepath.Join(c.outDir, "work")
	}
	if c.quick {
		c.seconds, c.runs = nominalSeconds/10, 2
	}

	var err error
	switch {
	case c.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case c.setupOnly:
		err = setupOnly(&c)
	case c.workload != "":
		err = singleRun(&c)
	case c.selfcheck:
		err = selfcheck(&c)
	default:
		err = suite(&c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runResult is the last stdout line of a single run.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

func isService(workload string) bool {
	return workload == wlServiceMix || workload == wlServiceDurable
}

// execute runs the workload's measured pass at the scale c.seconds selects
// (and, in tests, maxRows).
func execute(c *config, maxRows int) (*outcome, *serviceFacts, error) {
	ctx := context.Background()
	switch c.workload {
	case wlColdLayers, wlNetworkFused:
		p := newLibPlan(c.workload, c.seed, c.seconds, maxRows)
		if err := setupLibrary(ctx, p); err != nil {
			return nil, nil, err
		}
		o := runLibrary(ctx, p, nil)
		verifyLibTwins(ctx, p, o, nil)
		return o, nil, nil
	default:
		p := newSvcPlan(c.workload, c.seed, scaleCount(serviceJobs, c.seconds))
		o, facts, _, err := runService(p, c.workdir, nil, nil)
		return o, facts, err
	}
}

// setupOnly does everything a run does before its first timed operation —
// build the inputs, start the server, open the journal, warm the hot set —
// then tears it down and exits. The parent times the whole process, so
// runtime and package initialisation count too.
func setupOnly(c *config) error {
	if !knownWorkload(c.workload) {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if !isService(c.workload) {
		p := newLibPlan(c.workload, c.seed, c.seconds, 0)
		return setupLibrary(context.Background(), p)
	}
	s, err := openService(newSvcPlan(c.workload, c.seed, scaleCount(serviceJobs, c.seconds)), c.workdir, nil)
	if err != nil {
		return err
	}
	defer s.removeJournal()
	return s.stop()
}

// Fresh set-up processes a run times; setup_s is their median. A library
// set-up is a whole pass over the rows (seconds), a service set-up a
// fraction of a second, so the service can afford more samples.
const (
	setupRepsLibrary = 3
	setupRepsService = 5
)

// selfCommand re-executes this binary for one workload at c's scale and
// directories: a cold process.
func selfCommand(c *config, workload string, seed int64, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(c.seconds), "-outdir", c.outDir, "-workdir", c.workdir}, args...)...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// measureSetup times fresh processes that only set the workload up.
func measureSetup(c *config) (float64, error) {
	reps := setupRepsLibrary
	if isService(c.workload) {
		reps = setupRepsService
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		cmd, err := selfCommand(c, c.workload, c.seed, "-setup-only")
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// singleRun is one run of one workload in this process.
func singleRun(c *config) error {
	if !knownWorkload(c.workload) {
		return fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var m metricSet
	var o *outcome
	var err error
	if c.trace != 0 {
		m, o, err = tracedRun(c, 0)
	} else {
		var setupS float64
		if setupS, err = measureSetup(c); err == nil {
			if o, _, err = execute(c, 0); err == nil {
				m, err = endToEnd(o, setupS, c.lenient())
			}
		}
	}
	if err != nil {
		return err
	}
	res := runResult{Correct: o.failed() == 0, Attempted: len(o.samples), Failed: o.failed(), Metrics: m}
	printMetrics(os.Stdout, c.workload, res.Metrics)
	for _, f := range o.failures() {
		fmt.Fprintln(os.Stderr, "bench: FAILED", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations or checks failed", c.workload, res.Failed, res.Attempted)
	}
	return nil
}
