// Package obs is the search stack's zero-dependency telemetry layer:
// counters, spans, and progress events for every optimizer entry point.
//
// Three concerns, three primitives:
//
//   - Counter / Registry — atomic, race-clean counts of what a search did
//     (candidates generated, pruned per principle, evaluated, memo-cache
//     hits, beam dedupes). A search owns one Registry; SearchCounters gives
//     the hot paths typed handles so incrementing is one atomic add, and
//     SearchStats is the immutable snapshot published on Result.Stats.
//
//   - Trace / Span — hierarchical timed regions exportable as Chrome
//     trace-event JSON (load the file at chrome://tracing or
//     https://ui.perfetto.dev). Spans thread through context.Context so the
//     whole stack — network scheduler, optimizer, baselines — lands in one
//     trace without new parameters on any signature.
//
//   - ProgressEvent — phase-started / phase-finished / incumbent-improved
//     callbacks at bounded rate, for live tickers and service frontends.
//
// Everything is nil-safe and zero-overhead when disabled: a nil *Trace (or a
// context without one) makes StartSpan return a nil *Span whose methods are
// no-ops, and a nil progress function suppresses event construction
// entirely. Counters are always collected — they are a handful of atomic
// adds per candidate batch, which benchmarks put well under the noise floor
// of a single cost-model evaluation.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a race-clean monotonic counter. The zero value is ready to use;
// embed one wherever a count originates (e.g. the cost session's memo cache)
// and register it into the search's Registry so snapshots see it.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a race-clean instantaneous level (queue depth, running jobs) —
// unlike a Counter it moves both ways. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set pins the gauge to n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// CounterValue is one named counter's snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// Registry is an ordered set of named counters. Registration takes a lock;
// increments on the returned *Counter are lock-free atomic adds, so a search
// registers its counters once up front and the hot paths never contend.
type Registry struct {
	mu     sync.Mutex
	names  []string
	byName map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.byName[name]; ok {
		return c
	}
	c := &Counter{}
	r.byName[name] = c
	r.names = append(r.names, name)
	return c
}

// Register adopts an externally-owned counter (e.g. the cost session's cache
// hit counter) under name, so snapshots include counts that originate
// outside the search loop. Re-registering a name replaces the counter.
func (r *Registry) Register(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		r.names = append(r.names, name)
	}
	r.byName[name] = c
}

// Snapshot returns every counter's current value, sorted by name for
// deterministic rendering.
func (r *Registry) Snapshot() []CounterValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CounterValue, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, CounterValue{Name: name, Value: r.byName[name].Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Canonical counter names used by the search stack. The search registries
// use exactly these strings, so trace consumers and tests can key on them.
const (
	CtrGenerated       = "cand.generated"
	CtrEvaluated       = "cand.evaluated"
	CtrDeduped         = "cand.deduped"
	CtrSkipped         = "cand.skipped"
	CtrPrunedOrdering  = "pruned.ordering"
	CtrPrunedTiling    = "pruned.tiling"
	CtrPrunedUnrolling = "pruned.unrolling"
	CtrPrunedBound     = "pruned.bound"
	CtrPrunedBeam      = "pruned.beam"
	CtrBoundPruned     = "pruned.analytic"
	CtrCacheHits       = "eval.cache.hits"
	CtrCacheMisses     = "eval.cache.misses"
)

// Canonical counter names of the scheduler service (internal/server): the
// admission/shedding flow, job outcomes, and the overload-protection
// machinery. The service's registry uses exactly these strings, so the
// expvar export, /statz, and tests key on them.
const (
	// CtrSrvAdmitted counts submissions accepted into the job queue.
	CtrSrvAdmitted = "srv.jobs.admitted"
	// CtrSrvShedTenant counts submissions shed by per-tenant token-bucket
	// admission control (429 + Retry-After).
	CtrSrvShedTenant = "srv.shed.tenant-rate"
	// CtrSrvShedQueue counts submissions shed because the bounded job queue
	// was full (429 + Retry-After).
	CtrSrvShedQueue = "srv.shed.queue-full"
	// CtrSrvShedDrain counts submissions rejected while draining (503).
	CtrSrvShedDrain = "srv.shed.draining"
	// CtrSrvDone / CtrSrvFailed / CtrSrvCanceled count terminal job states.
	CtrSrvDone     = "srv.jobs.done"
	CtrSrvFailed   = "srv.jobs.failed"
	CtrSrvCanceled = "srv.jobs.canceled"
	// CtrSrvWatchdog counts stalled searches canceled by the per-job
	// watchdog.
	CtrSrvWatchdog = "srv.watchdog.fired"
	// CtrSrvPanics counts panics recovered by the HTTP handler guard and
	// the job workers (each converted into a structured failure).
	CtrSrvPanics = "srv.panics.recovered"
	// CtrSrvRecovered counts jobs re-admitted or restored from the
	// write-ahead journal at boot.
	CtrSrvRecovered = "srv.jobs.recovered"
	// CtrSrvIdemHit counts submissions answered from an existing job via
	// the Idempotency-Key header instead of being re-admitted.
	CtrSrvIdemHit = "srv.idempotent.replayed"
	// CtrSrvCheckpoint counts best-so-far incumbent checkpoints written to
	// the journal.
	CtrSrvCheckpoint = "srv.journal.checkpoints"
)

// SearchCounters is the typed handle set the optimizer hot paths increment.
// The handles live in a Registry (NewSearchCounters registers them under the
// canonical names), so generic consumers — trace export, the CLI ticker —
// see the same numbers without knowing the struct.
//
// The counters model a disjoint-fate flow over everything the search
// examines: each examined unit is either rejected by a pruning principle
// before a candidate mapping is materialized (PrunedOrdering for
// ordering-trie rejects, PrunedTiling for tiling-tree and factor-enumeration
// rejects, PrunedUnrolling for unrolling-rule and fanout-feasibility
// rejects), removed as a duplicate of an already-queued candidate (Deduped),
// cut before scoring because its admissible analytic lower bound already
// exceeds the incumbent (BoundPruned), scored by the cost model (Evaluated),
// or dropped unevaluated by a cancellation drain (Skipped). Generated counts
// every one of them, so
//
//	Generated = PrunedOrdering + PrunedTiling + PrunedUnrolling + BoundPruned
//	          + Deduped + Evaluated + Skipped
//
// holds at every instant of a search (and Skipped is zero for a run that
// was never canceled; BoundPruned is zero when a study search switches the
// analytical layer off). PrunedBound and PrunedBeam classify the
// *post*-evaluation beam selection — candidates cut by the alpha-beta bound
// or the beam-width truncation; they are subsets of Evaluated and
// deliberately outside the identity above.
type SearchCounters struct {
	Generated       *Counter
	Evaluated       *Counter
	Deduped         *Counter
	Skipped         *Counter
	PrunedOrdering  *Counter
	PrunedTiling    *Counter
	PrunedUnrolling *Counter
	BoundPruned     *Counter
	PrunedBound     *Counter
	PrunedBeam      *Counter
	EvalCacheHits   *Counter // the search's Evaluators charge memo lookups here
	EvalCacheMisses *Counter
}

// searchFields is the search-counter list, stated once: each SearchStats
// field, the SearchCounters handle behind it, and the canonical name both go
// by in a Registry. NewSearchCounters, SnapshotSearch and SearchCounters.Add
// are loops over it, so a counter added here is registered, snapshotted and
// summed everywhere (TestSearchFieldsCoverSearchStats holds the table to the
// struct).
var searchFields = []struct {
	name string
	ctr  func(*SearchCounters) **Counter
	stat func(*SearchStats) *uint64
}{
	{CtrGenerated, func(c *SearchCounters) **Counter { return &c.Generated }, func(s *SearchStats) *uint64 { return &s.Generated }},
	{CtrEvaluated, func(c *SearchCounters) **Counter { return &c.Evaluated }, func(s *SearchStats) *uint64 { return &s.Evaluated }},
	{CtrDeduped, func(c *SearchCounters) **Counter { return &c.Deduped }, func(s *SearchStats) *uint64 { return &s.Deduped }},
	{CtrSkipped, func(c *SearchCounters) **Counter { return &c.Skipped }, func(s *SearchStats) *uint64 { return &s.Skipped }},
	{CtrPrunedOrdering, func(c *SearchCounters) **Counter { return &c.PrunedOrdering }, func(s *SearchStats) *uint64 { return &s.PrunedOrdering }},
	{CtrPrunedTiling, func(c *SearchCounters) **Counter { return &c.PrunedTiling }, func(s *SearchStats) *uint64 { return &s.PrunedTiling }},
	{CtrPrunedUnrolling, func(c *SearchCounters) **Counter { return &c.PrunedUnrolling }, func(s *SearchStats) *uint64 { return &s.PrunedUnrolling }},
	{CtrBoundPruned, func(c *SearchCounters) **Counter { return &c.BoundPruned }, func(s *SearchStats) *uint64 { return &s.BoundPruned }},
	{CtrPrunedBound, func(c *SearchCounters) **Counter { return &c.PrunedBound }, func(s *SearchStats) *uint64 { return &s.PrunedBound }},
	{CtrPrunedBeam, func(c *SearchCounters) **Counter { return &c.PrunedBeam }, func(s *SearchStats) *uint64 { return &s.PrunedBeam }},
	{CtrCacheHits, func(c *SearchCounters) **Counter { return &c.EvalCacheHits }, func(s *SearchStats) *uint64 { return &s.EvalCacheHits }},
	{CtrCacheMisses, func(c *SearchCounters) **Counter { return &c.EvalCacheMisses }, func(s *SearchStats) *uint64 { return &s.EvalCacheMisses }},
}

// NewSearchCounters registers the canonical search counters in r and
// returns the typed handles.
func NewSearchCounters(r *Registry) *SearchCounters {
	c := &SearchCounters{}
	for _, f := range searchFields {
		*f.ctr(c) = r.Counter(f.name)
	}
	return c
}

// Add accumulates one finished search's snapshot into the counters: how a
// long-lived holder (the job service) keeps lifetime totals.
func (c *SearchCounters) Add(s SearchStats) {
	for _, f := range searchFields {
		(*f.ctr(c)).Add(*f.stat(&s))
	}
}

// SearchStats is the immutable snapshot of a search's counters, published as
// Result.Stats. See SearchCounters for the flow identity the fields obey.
type SearchStats struct {
	// Generated counts everything the search examined: enumeration units
	// rejected by a pruning principle plus candidate mappings materialized
	// for scoring.
	Generated uint64
	// Evaluated counts cost-model scorings (memo-cache hits included — a
	// hit is still an evaluation, just a cheap one).
	Evaluated uint64
	// Deduped counts identical partial mappings removed from the beam
	// before the evaluation fan-out.
	Deduped uint64
	// Skipped counts materialized candidates dropped unevaluated by a
	// cancellation drain; zero for a run that completed naturally.
	Skipped uint64
	// PrunedOrdering / PrunedTiling / PrunedUnrolling count enumeration
	// units rejected pre-materialization by the paper's three principles
	// (the ordering trie, the tiling tree plus top-down factor enumeration,
	// and the unrolling rule plus fanout feasibility).
	PrunedOrdering  uint64
	PrunedTiling    uint64
	PrunedUnrolling uint64
	// BoundPruned counts materialized candidates cut *before* evaluation
	// because their admissible analytic lower bound (compulsory traffic +
	// peak-throughput occupancy) already exceeded the incumbent. Part of
	// the Generated identity via Pruned(); zero when analytic bounds are
	// disabled.
	BoundPruned uint64
	// PrunedBound / PrunedBeam count evaluated candidates cut from the beam
	// by the alpha-beta bound and by beam-width truncation. They are
	// subsets of Evaluated, not part of the Generated identity.
	PrunedBound uint64
	PrunedBeam  uint64
	// EvalCacheHits / EvalCacheMisses count lookups in the search-wide
	// memoization cache of the fast-path cost evaluator.
	EvalCacheHits   uint64
	EvalCacheMisses uint64
}

// Pruned is the pre-evaluation prune total: PrunedOrdering + PrunedTiling +
// PrunedUnrolling + BoundPruned. Together with Deduped, Evaluated and
// Skipped it partitions Generated.
func (s SearchStats) Pruned() uint64 {
	return s.PrunedOrdering + s.PrunedTiling + s.PrunedUnrolling + s.BoundPruned
}

// SnapshotSearch reads the canonical counters out of r into a SearchStats.
// Counters a registry never registered read as zero.
func SnapshotSearch(r *Registry) SearchStats {
	var s SearchStats
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range searchFields {
		if c := r.byName[f.name]; c != nil {
			*f.stat(&s) = c.Load()
		}
	}
	return s
}
