// Package registry is the one catalog of the prior-art mappers this
// repository rebuilds for the paper's comparison (Section V). The CLIs, the
// root package and the experiment drivers all take their mappers from it,
// by name, instead of calling the per-tool constructors themselves.
//
// It lives below internal/baselines (not inside it) because the mapper
// implementations import their parent package for the Result/Mapper types —
// a registry in internal/baselines itself would be an import cycle.
package registry

import (
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/cosa"
	"sunstone/internal/baselines/dmaze"
	"sunstone/internal/baselines/fixed"
	"sunstone/internal/baselines/interstellar"
	"sunstone/internal/baselines/timeloop"
)

// Entry is one catalog row.
type Entry struct {
	// Name is the stable registry key: lowercase, flag-friendly (what
	// cmd/sunstone -baselines accepts).
	Name string
	// Mapper is a fresh mapper in its paper-default configuration. Callers
	// wanting a non-default budget (e.g. the experiment drivers' scaled
	// Timeloop wall-clocks) adjust its exported configuration.
	Mapper baselines.Mapper
}

// All returns the catalog in canonical comparison order: the search-based
// tools first (Table V fast/slow pairs), then the one-shot analytic tools,
// then the fixed-dataflow reference points. Every call builds fresh mappers;
// those that score candidates draw their cost sessions from src (nil: each
// builds its own, see baselines.SessionFor).
func All(src baselines.SessionSource) []Entry {
	tlFast, tlSlow := timeloop.New(timeloop.Fast()), timeloop.New(timeloop.Slow())
	dmFast, dmSlow := dmaze.New(dmaze.Fast()), dmaze.New(dmaze.Slow())
	inter, co := interstellar.New(), cosa.New()
	tlFast.Sessions, tlSlow.Sessions, dmFast.Sessions, dmSlow.Sessions = src, src, src, src
	inter.Sessions, co.Sessions = src, src
	return []Entry{
		{"timeloop-fast", tlFast},
		{"timeloop-slow", tlSlow},
		{"dmaze-fast", dmFast},
		{"dmaze-slow", dmSlow},
		{"interstellar", inter},
		{"cosa", co},
		{"weight-stationary", fixed.New(fixed.WeightStationary)},
		{"output-stationary", fixed.New(fixed.OutputStationary)},
		{"input-stationary", fixed.New(fixed.InputStationary)},
	}
}

// Lookup returns a fresh mapper by registry name, wired to src like All's.
func Lookup(src baselines.SessionSource, name string) (baselines.Mapper, bool) {
	for _, e := range All(src) {
		if e.Name == name {
			return e.Mapper, true
		}
	}
	return nil, false
}
