package sunstone

import (
	"context"

	"sunstone/internal/baselines/registry"
	"sunstone/internal/core"
)

// Engine is a long-lived, goroutine-safe optimizer front end that caches the
// expensive per-(workload, architecture, cost model) compilation artifacts —
// the pruned ordering trie, the factor/divisor ladder tables, the analytic
// seed, and the fast-path cost session with its capacity table and
// search-wide evaluation memo — across calls. The first Solve for a problem
// shape compiles it; every later call on the same shape (same Engine) reuses
// the compiled artifacts and the warmed evaluation cache, which is the common
// case when scheduling a network whose layers repeat or when sweeping options
// over one layer.
//
// The package-level Solve is this same method on an Engine it throws away.
// An Engine never changes *what* is found — results are identical cold or
// warm, only faster when shapes repeat.
//
// Engines are safe for concurrent use; calls from many goroutines share one
// bounded (LRU-evicted) compilation cache. Searches with Options.Model.Probe
// set bypass the cache (a probe is per-call observation state).
type Engine struct {
	core *core.Engine
}

// NewEngine returns an Engine with the default compilation-cache bound
// (256 problem shapes, evicted least-recently-used).
func NewEngine() *Engine { return &Engine{core: core.NewEngine(0)} }

// NewEngineSize returns an Engine whose compilation cache holds at most
// maxEntries problem shapes; maxEntries <= 0 selects the default bound.
func NewEngineSize(maxEntries int) *Engine { return &Engine{core: core.NewEngine(maxEntries)} }

// EngineStats is a snapshot of an Engine's compilation-cache activity.
type EngineStats = core.EngineStats

// Stats returns a snapshot of the compilation cache: compiles (misses),
// hits, LRU evictions, and the current entry count.
func (e *Engine) Stats() EngineStats { return e.core.Stats() }

// Solve runs the Sunstone optimizer on a Problem under ctx through the
// Engine's compilation cache, as an anytime algorithm (see the package
// comment). The cache key is derived from the Problem's content (workload,
// arch, cost model), never from pointer identity. With Options.Retry set it
// is hardened for environments where searches can fail: bounded retries at
// backed-off budgets, then the guaranteed-feasible innermost-fit
// construction, with every accepted result passing a final mapping audit.
// Attempts are recorded in Result.Attempts; Result.FallbackUsed is
// "innermost-fit" when the fallback produced the mapping ("" means the
// primary search), and the error is non-nil only when every attempt failed.
func (e *Engine) Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	return e.core.Solve(ctx, p, opt)
}

// Baselines returns the prior-art mappers of the paper's comparison, in the
// catalog's order: the search-based tools first (Timeloop and dMazeRunner,
// Table V fast/slow pairs), then the one-shot analytic tools (Interstellar,
// CoSA), then the fixed-dataflow reference points. Each call builds fresh
// mappers in their paper-default configurations, and every one that scores
// candidates shares the Engine's cached cost sessions, so a head-to-head
// comparison against an Engine-driven Sunstone run reuses one set of
// per-problem tables instead of rebuilding them per tool.
func (e *Engine) Baselines() []NamedBaseline { return registry.All(e.core) }
