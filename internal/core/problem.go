package core

import (
	"context"
	"crypto/sha256"
	"errors"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/serde"
	"sunstone/internal/tensor"
)

// Problem bundles everything that identifies one optimization problem: the
// workload to map, the architecture to map it onto, and the cost model that
// scores mappings (the zero Model is cost.Default).
// It is the canonical input of Solve and Engine.Solve, and the single source
// of the content-addressed cache key an Engine stores compiled artifacts
// under — two Problems with equal serialized content share one compilation
// no matter how many distinct pointers describe them.
type Problem struct {
	Workload *tensor.Workload
	Arch     *arch.Arch
	// Model overrides Options.Model when non-zero; the zero Model defers to
	// the Options.
	Model cost.Model
}

// Validate checks the problem's structural soundness — the same workload and
// arch validation every optimize entry point performs.
func (p Problem) Validate() error {
	if p.Workload == nil {
		return errors.New("problem: nil workload")
	}
	if p.Arch == nil {
		return errors.New("problem: nil arch")
	}
	if err := p.Workload.Validate(); err != nil {
		return err
	}
	return p.Arch.Validate()
}

// model resolves the effective cost model: the Problem's when set, the
// Options' otherwise.
func (p Problem) model(opt Options) cost.Model {
	if p.Model != (cost.Model{}) {
		return p.Model
	}
	return opt.Model
}

// Key content-addresses the problem via its canonical JSON serialization
// (map keys sort deterministically under encoding/json) — the cache identity
// an Engine uses. ok is false for problems outside the cacheable domain: a
// model carrying a fault-injection Probe is opaque state the key cannot
// capture (and probe semantics — "fires on every evaluation" — forbid
// serving memoized results anyway), and inputs that fail to serialize
// cannot be content-addressed at all.
func (p Problem) Key() (key string, ok bool) {
	if p.Model.Probe != nil {
		return "", false
	}
	wj, err := serde.EncodeWorkload(p.Workload)
	if err != nil {
		return "", false
	}
	aj, err := serde.EncodeArch(p.Arch)
	if err != nil {
		return "", false
	}
	h := sha256.New()
	h.Write(wj)
	h.Write([]byte{0})
	h.Write(aj)
	if p.Model.NoSlidingReuse {
		h.Write([]byte{2})
	} else {
		h.Write([]byte{1})
	}
	// Residency changes the flow structure, so resident problems must never
	// share a compiled entry with the DRAM-backed ones. Pins hash in
	// canonical order; levels fit a byte for any realistic hierarchy.
	for _, pin := range p.Model.Resident.CanonicalPins() {
		h.Write([]byte{3, byte(pin.Level)})
		h.Write([]byte(pin.Tensor))
		h.Write([]byte{0})
	}
	return string(h.Sum(nil)), true
}

// Compile builds the problem's immutable artifact bundle under its model.
func (p Problem) Compile() (*Compiled, error) {
	return Compile(p.Workload, p.Arch, p.Model)
}

// Solve is (*Engine).Solve on a transient Engine: nothing is retained across
// calls. Hold an Engine to reuse compiled artifacts when problems repeat.
func Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	return NewEngine(0).Solve(ctx, p, opt)
}

// Solve searches for the best mapping of the problem under ctx — the single
// entry point of the optimizer. The search is an anytime algorithm: on
// cancellation or deadline it returns the best completed mapping seen so far
// with Result.Stopped set. Options and Problem are validated once, here;
// then either one search runs, or — with Options.Retry set — the
// retry→fallback→audit loop of resilient.go around it.
//
// The search runs over the Engine's compiled-artifact cache. Results are
// identical to a cold call — the search replays the compiled enumeration
// into its own counters and spans — only faster, because the per-problem
// precomputation and the evaluation memo carry over across calls with the
// same Problem.Key.
func (e *Engine) Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	opt.Model = p.model(opt)
	p.Model = opt.Model
	if opt.Retry != nil {
		return e.solveResilient(ctx, p, opt)
	}
	return e.search(ctx, p, opt)
}

// search runs one search of an already validated problem under already
// validated and defaulted options.
func (e *Engine) search(ctx context.Context, p Problem, opt Options) (Result, error) {
	comp, err := e.compiled(p)
	if err != nil {
		return Result{}, err
	}
	return optimizeCompiled(ctx, comp, opt)
}
