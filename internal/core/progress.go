package core

import (
	"fmt"
	"math"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/faults"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
)

// progressMinInterval rate-bounds incumbent-improved events. Phase
// boundaries are never limited — there are only a handful per search.
const progressMinInterval = 50 * time.Millisecond

// progressEmitter delivers Options.Progress callbacks. All methods are
// nil-receiver safe (a search without a Progress callback carries a nil
// emitter), and all emission happens synchronously on the goroutine driving
// the search, so no event can be delivered after Solve returns.
//
// A panicking callback is contained exactly like a poisoned candidate: the
// panic becomes an *anytime.PanicError (surfaced via takeErr into
// Result.CandidateErrors), the emitter disables itself, and the search runs
// on without progress reporting.
type progressEmitter struct {
	fn       obs.ProgressFunc
	ctr      *obs.SearchCounters
	start    time.Time
	lim      obs.Limiter
	disabled bool
	err      error
	// Last incumbent the search reported; phase events carry these numbers
	// so a listener always sees the current best alongside the phase.
	score    float64
	energyPJ float64
	cycles   float64
}

func newProgressEmitter(fn obs.ProgressFunc, ctr *obs.SearchCounters) *progressEmitter {
	if fn == nil {
		return nil
	}
	return &progressEmitter{
		fn:    fn,
		ctr:   ctr,
		start: time.Now(),
		lim:   obs.Limiter{MinInterval: progressMinInterval},
		score: math.Inf(1),
	}
}

// emit invokes the callback with panic containment.
func (p *progressEmitter) emit(ev obs.ProgressEvent) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "deliver progress event", func() string {
			return fmt.Sprintf("event %s phase %q", ev.Kind, ev.Phase)
		}); e != nil {
			p.disabled = true
			p.err = e
		}
	}()
	// Chaos hook: an injected delivery fault panics and is contained
	// exactly like a panicking user callback.
	faults.MustFire(faults.SiteProgress)
	p.fn(ev)
}

func (p *progressEmitter) event(kind obs.ProgressKind, name string, level int) obs.ProgressEvent {
	return obs.ProgressEvent{
		Kind:      kind,
		Phase:     name,
		Level:     level,
		Score:     p.score,
		EnergyPJ:  p.energyPJ,
		Cycles:    p.cycles,
		Generated: p.ctr.Generated.Load(),
		Evaluated: p.ctr.Evaluated.Load(),
		Elapsed:   time.Since(p.start),
	}
}

// phase emits a phase-started / phase-finished boundary (never rate-limited).
func (p *progressEmitter) phase(kind obs.ProgressKind, name string, level int) {
	if p == nil || p.disabled {
		return
	}
	p.emit(p.event(kind, name, level))
}

// phasef is phase with deferred formatting: the name is rendered only when a
// callback is installed and live.
func (p *progressEmitter) phasef(kind obs.ProgressKind, level int, format string, args ...any) {
	if p == nil || p.disabled {
		return
	}
	p.phase(kind, fmt.Sprintf(format, args...), level)
}

// admit records a (possibly) improved best-so-far and reports whether an
// event goes out for it: only genuine improvements emit, at a bounded rate —
// except the first incumbent, which always fires. Split from report because
// the caller holds the improvement as a row and builds its Mapping only for
// an event that is delivered.
func (p *progressEmitter) admit(score, energyPJ, cycles float64) bool {
	if p == nil || p.disabled || score >= p.score {
		return false
	}
	first := math.IsInf(p.score, 1)
	p.score, p.energyPJ, p.cycles = score, energyPJ, cycles
	return first || p.lim.Allow(time.Now())
}

// report emits the incumbent-improved event admit just allowed. m is the
// improved mapping itself; it rides on the event so listeners (e.g. the
// server's checkpoint capture) can serialize the best-so-far without a side
// channel.
func (p *progressEmitter) report(phase string, level int, m *mapping.Mapping) {
	ev := p.event(obs.IncumbentImproved, phase, level)
	ev.Incumbent = m
	p.emit(ev)
}

// takeErr returns the contained callback panic, if any, exactly once.
func (p *progressEmitter) takeErr() error {
	if p == nil {
		return nil
	}
	err := p.err
	p.err = nil
	return err
}
