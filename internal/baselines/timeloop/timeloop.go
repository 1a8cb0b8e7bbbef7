// Package timeloop reimplements the Timeloop mapper's search strategy
// (Parashar et al., ISPASS 2019): undirected random sampling of the full
// mapping space, with per-thread termination controlled by a timeout (TO,
// consecutive invalid samples) and a victory condition (VC, consecutive
// valid samples without improvement). The paper's Table V fast/slow
// hyper-parameter configurations are provided.
//
// Timeloop builds its space from *all* problem dimensions at every temporal
// and spatial level (Table I), applies no pruning, and therefore explores an
// astronomically large space undirected — the cause of the slow
// time-to-solution and occasionally poor mappings the paper reports
// (Sections V-B1 and V-B2). Invalid samples are rejected internally, so the
// tool never *returns* an invalid mapping (Table I, last row).
package timeloop

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/cost"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// Config holds Timeloop's search hyper-parameters (Table V).
type Config struct {
	Name string
	// TO terminates a thread after this many consecutive invalid samples.
	TO int
	// VC terminates a thread after this many consecutive valid samples
	// without improving its best EDP.
	VC int
	// Threads is the number of search threads (the paper uses 8).
	Threads int
	// MaxTime bounds the whole search wall-clock (the paper kills Timeloop
	// after one hour per layer; experiments here scale that down, which
	// only *helps* Timeloop's reported time-to-solution).
	MaxTime time.Duration
	// Seed makes runs reproducible.
	Seed int64
}

// Fast returns the Table V fast/aggressive configuration.
func Fast() Config {
	return Config{Name: "TL-fast", TO: 20000, VC: 25, Threads: 8, MaxTime: 20 * time.Second, Seed: 1}
}

// Slow returns the Table V slow/conservative configuration.
func Slow() Config {
	return Config{Name: "TL-slow", TO: 80000, VC: 1500, Threads: 8, MaxTime: 60 * time.Second, Seed: 1}
}

// Mapper is the Timeloop-style random-search mapper.
type Mapper struct {
	Cfg   Config
	Model cost.Model
	// Sessions, when non-nil, supplies the fast-path cost session (e.g. a
	// shared Engine's compiled cache) instead of building one per call.
	Sessions baselines.SessionSource
}

// New returns a mapper with the given configuration and the default model.
func New(cfg Config) *Mapper { return &Mapper{Cfg: cfg, Model: cost.Default} }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return m.Cfg.Name }

// MapContext implements baselines.Mapper with the anytime contract: every
// search thread polls ctx alongside the tool's own MaxTime budget (every 256
// samples), so a deadline or cancel stops the whole search within one
// polling interval and returns the best mapping sampled so far. A panicking
// cost-model evaluation is contained per sample: the poisoned candidate
// counts as an invalid sample (feeding the TO termination condition, exactly
// like Timeloop's own rejection path) and is reported in Result.Errors.
// The run is recorded as a telemetry span when the context carries a trace
// (see baselines.Instrument).
func (m *Mapper) MapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	return baselines.Instrument(ctx, m.Name(), func(ctx context.Context) baselines.Result {
		return m.mapContext(ctx, w, a)
	})
}

func (m *Mapper) mapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	start := time.Now()
	cfg := m.Cfg
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = 20 * time.Second
	}
	deadline := start.Add(cfg.MaxTime)
	budgetHit := false

	// One cost session for the whole search; each thread owns a scratch
	// evaluator, so the sampling loop allocates only the candidates.
	sess := baselines.SessionFor(m.Sessions, m.Model, w, a)

	type threadBest struct {
		m         *mapping.Mapping
		edp       float64
		energyPJ  float64
		cycles    float64
		evaluated int
		budgetHit bool
		panics    []error
	}
	// evalSample contains a poisoned evaluation: the panic becomes a
	// per-candidate error and the sample reads as invalid.
	evalSample := func(ev *cost.Evaluator, cand *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool, perr error) {
		defer func() {
			if e := anytime.PanicErrorFrom(recover(), "Timeloop sample evaluation", cand.String); e != nil {
				valid = false
				perr = e
			}
		}()
		edp, energyPJ, cycles, valid = ev.EvaluateEDP(cand)
		return edp, energyPJ, cycles, valid, nil
	}
	results := make([]threadBest, cfg.Threads)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ev := sess.NewEvaluator()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
			bestEDP := math.Inf(1)
			var best *mapping.Mapping
			var bestEnergyPJ, bestCycles float64
			invalidStreak, noImproveStreak, evaluated := 0, 0, 0
			for invalidStreak < cfg.TO && noImproveStreak < cfg.VC {
				if evaluated%256 == 0 {
					if ctx.Err() != nil {
						break
					}
					if time.Now().After(deadline) {
						results[t].budgetHit = true
						break
					}
				}
				cand := randomMapping(w, a, rng)
				edp, energyPJ, cycles, valid, perr := evalSample(ev, cand)
				evaluated++
				if perr != nil {
					if len(results[t].panics) < 8 {
						results[t].panics = append(results[t].panics, perr)
					}
					invalidStreak++
					continue
				}
				if !valid {
					invalidStreak++
					continue
				}
				invalidStreak = 0
				if edp < bestEDP {
					bestEDP = edp
					best = cand
					bestEnergyPJ, bestCycles = energyPJ, cycles
					noImproveStreak = 0
				} else {
					noImproveStreak++
				}
			}
			results[t].m = best
			results[t].edp = bestEDP
			results[t].energyPJ = bestEnergyPJ
			results[t].cycles = bestCycles
			results[t].evaluated = evaluated
		}(t)
	}
	wg.Wait()

	out := baselines.Result{Elapsed: time.Since(start)}
	bestEDP := math.Inf(1)
	var bestEnergyPJ, bestCycles float64
	for _, r := range results {
		out.Evaluated += r.evaluated
		budgetHit = budgetHit || r.budgetHit
		for _, e := range r.panics {
			if len(out.Errors) < 8 {
				out.Errors = append(out.Errors, e)
			}
		}
		if r.m != nil && r.edp < bestEDP {
			bestEDP = r.edp
			bestEnergyPJ, bestCycles = r.energyPJ, r.cycles
			out.Mapping = r.m
		}
	}
	if out.Mapping != nil {
		out.Report = baselines.FinalReport(sess.NewEvaluator(), out.Mapping, bestEDP, bestEnergyPJ, bestCycles, true)
	}
	switch {
	case anytime.FromContext(ctx) != anytime.Complete:
		out.Stopped = anytime.FromContext(ctx)
	case budgetHit:
		out.Stopped = anytime.Budget
	}
	if out.Mapping == nil {
		out.Valid = false
		out.InvalidReason = "random search found no valid mapping"
		if out.Stopped != anytime.Complete {
			out.InvalidReason += " before the search stopped (" + out.Stopped.String() + ")"
		}
		return out
	}
	out.Valid = true
	return out
}

// randomMapping samples one point of the unpruned mapping space: every
// dimension's prime factors are scattered uniformly over all temporal levels
// and all spatial slots, and each level gets a uniformly random loop order.
func randomMapping(w *tensor.Workload, a *arch.Arch, rng *rand.Rand) *mapping.Mapping {
	m := mapping.New(w, a)
	nLevels := len(a.Levels)

	// Slots: temporal at each level, spatial at each level with fanout.
	type slot struct {
		level   int
		spatial bool
	}
	var slots []slot
	for l := 0; l < nLevels; l++ {
		slots = append(slots, slot{level: l})
		if a.Levels[l].Fanout > 1 {
			slots = append(slots, slot{level: l, spatial: true})
		}
	}

	// Canonical dimension order: iterating the map would randomize the rng
	// draw sequence and break seed reproducibility.
	for _, d := range w.Order {
		bound := w.Dims[d]
		for _, p := range factor.Primes(bound) {
			s := slots[rng.Intn(len(slots))]
			if s.spatial {
				m.Levels[s.level].Spatial[d] = m.Levels[s.level].S(d) * p
			} else {
				m.Levels[s.level].Temporal[d] = m.Levels[s.level].T(d) * p
			}
		}
		if bound == 1 {
			m.Levels[nLevels-1].Temporal[d] = 1
		}
	}
	for l := 0; l < nLevels; l++ {
		m.Levels[l].Order = randomOrder(w, rng)
	}
	return m
}

func randomOrder(w *tensor.Workload, rng *rand.Rand) []tensor.Dim {
	order := append([]tensor.Dim(nil), w.Order...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
