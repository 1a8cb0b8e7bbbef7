#!/bin/sh
# guard-api.sh — keep the solve/schedule entry points collapsed.
#
# PR 14 reduced 25 exported solve/schedule functions to 7 (Solve and
# Engine.Solve in the root package and internal/core, Engine.ScheduleNetwork
# and Engine.ScheduleNetworkFused in the root package, Engine.SolveNetworkFused
# in internal/core) and made retrying an option, Options.Retry, instead of a
# parallel entry point. This guard fails the build if a deleted wrapper or a
# second retry carrier reappears in any non-test Go file outside bench/.
set -eu
cd "$(dirname "$0")/.."

status=0
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*')

# A function or method declared under one of the deleted names.
# shellcheck disable=SC2086
if grep -nE '^func (\([^)]*\) )?(Optimize|OptimizeContext|OptimizeResilient|SolveContext|ScheduleNetworkContext|ScheduleNetworkIR)\(' $files; then
	echo "guard-api: the positional/context/resilient wrappers are gone;" >&2
	echo "call Solve(ctx, Problem, Options) or Engine.ScheduleNetwork(ctx, *Network, ...)" >&2
	status=1
fi

# A struct field named Resilience: the retry policy travels in Options.Retry.
# shellcheck disable=SC2086
if grep -nE '^[[:space:]]+Resilience[[:space:]]+[*A-Za-z]' $files; then
	echo "guard-api: no second retry carrier; set Options.Retry" >&2
	status=1
fi

exit $status
