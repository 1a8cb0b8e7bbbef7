package main

import (
	"fmt"
	"os"
	"sort"

	"sunstone/internal/core"
	"sunstone/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value, for one run of one workload.
type metricSet map[string]metric

// sample is the client-visible timeline of one operation, in milliseconds
// from just before the request was issued. A library call hands back the
// acknowledgement, the first usable mapping and the final one in the same
// instant — its return — so all three read the call's wall time there.
type sample struct {
	row       string
	ackMS     float64
	firstMS   float64
	termMS    float64
	edp       float64
	frames    int // SSE frames received (service)
	queueMS   float64
	runMS     float64
	fallback  bool
	failedWhy string // non-empty: the op failed and misses every latency figure

	// What the program reported about the op's own work (library ops; the
	// service reports the same through Server.Stats).
	search obs.SearchStats
	engine core.EngineStats
}

// outcome is everything one measured pass produced.
type outcome struct {
	samples  []sample
	timedSec float64 // wall time the timed operations took
	// auxFailures are failed checks that are not a timed op: exec.Verify
	// twins, the durable reopen, fused ≤ unfused.
	auxFailures []string
}

func (o *outcome) failf(format string, args ...any) {
	o.auxFailures = append(o.auxFailures, fmt.Sprintf(format, args...))
}

func (o *outcome) ok() []sample {
	var ok []sample
	for _, s := range o.samples {
		if s.failedWhy == "" {
			ok = append(ok, s)
		}
	}
	return ok
}

// failed counts failed timed ops plus failed auxiliary checks.
func (o *outcome) failed() int {
	return len(o.samples) - len(o.ok()) + len(o.auxFailures)
}

// failures names every failed row or check.
func (o *outcome) failures() []string {
	var out []string
	for _, s := range o.samples {
		if s.failedWhy != "" {
			out = append(out, s.row+": "+s.failedWhy)
		}
	}
	return append(out, o.auxFailures...)
}

// Tail percentiles of the end-to-end set. p90 is the highest percentile
// every workload supports at its frozen count (network-fused runs 100 ops);
// the service workloads additionally report p99 among the per-layer
// numbers, where 1000+ samples support it.
const e2eTail = 90

// pJPerJ scales the program's EDP (pJ·cycles, around 10¹⁸) to J·cycles for
// the report: a figure that size is written as a 19-digit integer in JSON,
// which readers that keep integers apart from floats refuse or round.
const pJPerJ = 1e12

// rowMedians groups the ok samples by row and returns each row's median
// time-to-mapping, keyed by row name.
func rowMedians(ok []sample) map[string]float64 {
	byRow := map[string][]float64{}
	for _, s := range ok {
		byRow[s.row] = append(byRow[s.row], s.termMS)
	}
	med := make(map[string]float64, len(byRow))
	for r, xs := range byRow {
		med[r] = median(xs)
	}
	return med
}

func column(ok []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ok))
	for i, s := range ok {
		xs[i] = f(s)
	}
	return xs
}

// endToEnd computes the end-to-end metrics of one pass. setupS is measured
// separately (see measureSetup).
func endToEnd(o *outcome, setupS float64, lenient bool) (metricSet, error) {
	ok := o.ok()
	if len(ok) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", o.failures())
	}
	if err := requirePercentile(len(ok), e2eTail, lenient); err != nil {
		return nil, err
	}
	med := rowMedians(ok)
	rows := make([]float64, 0, len(med))
	slowest := 0.0
	for _, m := range med {
		rows = append(rows, m)
		if m > slowest {
			slowest = m
		}
	}
	ack := column(ok, func(s sample) float64 { return s.ackMS })
	first := column(ok, func(s sample) float64 { return s.firstMS })
	term := column(ok, func(s sample) float64 { return s.termMS })
	tail := float64(e2eTail) / 100
	return metricSet{
		"setup_s":                {setupS, "s"},
		"solve_geomean_ms":       {geomean(rows), "ms"},
		"solve_slowest_ms":       {slowest, "ms"},
		"solves_per_s":           {float64(len(ok)) / o.timedSec, "1/s"},
		"submit_ack_p50_ms":      {median(ack), "ms"},
		"submit_ack_p90_ms":      {quantile(ack, tail), "ms"},
		"first_incumbent_p50_ms": {median(first), "ms"},
		"first_incumbent_p90_ms": {quantile(first, tail), "ms"},
		"terminal_p50_ms":        {median(term), "ms"},
		"terminal_p90_ms":        {quantile(term, tail), "ms"},
		"edp_geomean":            {geomean(column(ok, func(s sample) float64 { return s.edp })) / pJPerJ, "J.cycles"},
	}, nil
}

// requirePercentile fails when n samples do not support percentile p; a
// down-scaled run only warns.
func requirePercentile(n int, p float64, lenient bool) error {
	if percentileSupported(n, p) {
		return nil
	}
	err := fmt.Errorf("%d samples do not support p%g (need %d beyond it)", n, p, minBeyond)
	if !lenient {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: warning:", err, "- down-scaled run, the tail figures are indicative only")
	return nil
}

// sortedNames returns the metric names of a set in a stable order.
func (m metricSet) sortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
