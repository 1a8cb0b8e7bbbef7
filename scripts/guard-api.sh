#!/bin/sh
# guard-api.sh — keep the solve/schedule entry points collapsed.
#
# PR 14 reduced 25 exported solve/schedule functions to 7 and made retrying
# an option, Options.Retry, instead of a parallel entry point; PR 16 made that
# 6 (Solve and Engine.Solve in the root package and internal/core,
# Engine.ScheduleNetworkFused in the root package over
# Engine.SolveNetworkFused in internal/core): the per-layer schedule is the
# MaxGroup 1 cut of the one network scheduler, and a schedule has one shape
# (core.NetworkResult; JobStatus is its wire form). This guard fails the build
# if a deleted wrapper, a second retry carrier, a second network scheduler, a
# second schedule shape or the schedule file format reappears in any non-test
# Go file outside bench/. PR 20 added three of the same kind: the capacity rule
# has one dense table (cost.Session.LevelFits), the analytic seed one builder
# (core.Compile), a baseline mapper one entry point (MapContext). The resilient
# path has one fallback (innermost-fit, called directly) and the baselines one
# catalog (registry.All, exposed as Engine.Baselines): no fallback-name
# resolver or chain, no per-tool constructor, no Marvel mapper. Options holds
# only what a user chooses: the Table VI study and the seed/bound/polish
# ablations live in core.Study, which only core and internal/experiments
# name, and the knobs and exports nothing set or called stay deleted.
set -eu
cd "$(dirname "$0")/.."

status=0
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*')

# A function or method declared under one of the deleted names.
# shellcheck disable=SC2086
if grep -nE '^func (\([^)]*\) )?(Optimize|OptimizeContext|OptimizeResilient|SolveContext|ScheduleNetworkContext|ScheduleNetworkIR)\(' $files; then
	echo "guard-api: the positional/context/resilient wrappers are gone;" >&2
	echo "call Solve(ctx, Problem, Options) or Engine.ScheduleNetworkFused(ctx, *Network, ...)" >&2
	status=1
fi

# A second network scheduler, or the schedule file format nobody read.
# shellcheck disable=SC2086
if grep -nE '^func (\([^)]*\) )?(ScheduleNetwork|EncodeNetworkSchedule|DecodeNetworkSchedule)\(' $files; then
	echo "guard-api: one network scheduler, one wire form; the per-layer schedule is" >&2
	echo "ScheduleNetworkFused with FusionOptions{MaxGroup: 1}, and clients read JobStatus" >&2
	status=1
fi

# A second struct for one fused segment: core.GroupResult is the type, and
# GroupSchedule stays an alias of it.
# shellcheck disable=SC2086
if grep -nE '^(type )?[[:space:]]*(GroupSchedule|NetworkGroupJSON)[[:space:]]+struct' $files; then
	echo "guard-api: a group has one struct, core.GroupResult (JSON-tagged)" >&2
	status=1
fi

# A struct field named Resilience: the retry policy travels in Options.Retry.
# shellcheck disable=SC2086
if grep -nE '^[[:space:]]+Resilience[[:space:]]+[*A-Za-z]' $files; then
	echo "guard-api: no second retry carrier; set Options.Retry" >&2
	status=1
fi

# A second dense capacity table next to cost.Session's.
# shellcheck disable=SC2086
if grep -nE '^(type|func)[[:space:]]+(\([^)]*\)[[:space:]]+)?(fitSkeleton|buildFitSkeleton|capPlan)\b' $files; then
	echo "guard-api: the capacity rule has one dense form, cost.Session.LevelFits" >&2
	status=1
fi

# The analytic seed is built once per problem, by core.Compile.
# shellcheck disable=SC2086
if grep -n 'analytic\.Seed(' $files | grep -v '^\./internal/core/compile\.go:'; then
	echo "guard-api: searches install Compiled's seed row; only core.Compile calls analytic.Seed" >&2
	status=1
fi

# The uninterruptible baseline entry point.
if grep -rnE --include='*.go' --exclude='*_test.go' '^func \([^)]*\*Mapper\) Map\(' internal/baselines; then
	echo "guard-api: a baseline mapper has one entry point, MapContext" >&2
	status=1
fi

# A fallback chain or name resolver, or a second way to wire a mapper's
# sessions: innermost-fit is the one fallback, and registry.All sets Sessions.
# shellcheck disable=SC2086
if grep -nE '^func (\([^)]*\) )?(RegisterFallbackResolver|UseSessions|Lite)\(|^type FallbackResolver\b|^[[:space:]]+(Fallbacks|FallbackTries)[[:space:]]+[][A-Za-z]' $files; then
	echo "guard-api: innermost-fit is the only fallback; registry.All wires a mapper's sessions" >&2
	status=1
fi

# A per-tool baseline constructor, or a second catalog, in the root package.
root=$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
if grep -nE '^func (Baselines|TimeloopFast|TimeloopSlow|DMazeFast|DMazeSlow|Interstellar|CoSA|Marvel|WeightStationary|OutputStationary|InputStationary)\(' $root; then
	echo "guard-api: the root package has one baseline catalog, Engine.Baselines" >&2
	status=1
fi

# The Marvel mapper: no figure ran it, and Table I's row is internal/spacesize's.
# shellcheck disable=SC2086
if [ -e internal/baselines/marvel ] || grep -n '"sunstone/internal/baselines/marvel"' $files; then
	echo "guard-api: the Marvel mapper is deleted; Table I's Marvel row comes from internal/spacesize" >&2
	status=1
fi

# The study switches that used to reach Options, the CLI and the wire, and
# the knobs nothing set: Backoff is a constant, DoubleBuffered was never read.
# shellcheck disable=SC2086
if grep -nwE 'ParseDirection|AnalyticalOptions|TopDownVisitBudget|Backoff|DoubleBuffered' $files; then
	echo "guard-api: the Table VI direction and the ablations are core.Study fields, the" >&2
	echo "retry backoff is a constant, and arch.Level has no DoubleBuffered field" >&2
	status=1
fi

# A root export no caller used: (*Engine).NewServer builds a server, and the
# zero RetryPolicy is the default one.
# shellcheck disable=SC2086
if grep -nE '^func (NewServer|DefaultRetryPolicy)\(' $root; then
	echo "guard-api: build a server with (*Engine).NewServer; the zero RetryPolicy is the default" >&2
	status=1
fi

# core.Study is reachable only from core itself and internal/experiments.
# shellcheck disable=SC2086
if grep -nw 'Study' $files | grep -vE '^\./(internal/core|internal/experiments|cmd/experiments)/'; then
	echo "guard-api: core.Study (Table VI, the ablations) is not a product option;" >&2
	echo "only internal/core, internal/experiments and cmd/experiments may name it" >&2
	status=1
fi

exit $status
