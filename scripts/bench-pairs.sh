#!/bin/sh
# bench-pairs.sh — the pairs protocol of bench/README.md as one command.
#
#   scripts/bench-pairs.sh <base-ref> [pairs=10] [workload ...]
#
# Checks <base-ref> out into a temporary git worktree, builds ./bench on that
# tree and on this one, and runs alternating pairs of
#   bench --workload W --seed S --seconds 20 --trace 0
# (which side goes first alternates from pair to pair; seeds start at
# $BENCH_PAIRS_SEED, default 1001, above anything used while developing), every
# run a cold process started in its own tree. The runs of each side are written
# in the format of `bench -out` and judged by this tree's `bench -compare` —
# so the table (both medians with quartiles, the ratio with its base) and the
# verdicts (better / same / unresolved / worse) are the rule bench/README.md
# states, not a second copy of it — and a wins/pairs count per (workload,
# metric) follows, pair i being the two runs on seed S+i.
#
# Exit status 1 on any `worse` verdict or any failed operation on either side.
# Everything the script writes is under one mktemp directory, removed on exit
# together with the worktree.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: $0 <base-ref> [pairs=10] [workload ...]" >&2
	exit 2
fi
base=$1
pairs=${2:-10}
[ $# -ge 2 ] && shift 2 || shift 1
seed0=${BENCH_PAIRS_SEED:-1001}
seconds=20

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
workloads=${*:-$(sed -n 's/^ *"name": "\([a-z-]*\)",$/\1/p' BENCHMARK.json)}

tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git worktree add --detach "$tmp/base" "$base" >/dev/null
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./bench)
go build -o "$tmp/bench-new" ./bench

# run <side> <tree> <workload> <seed>: one cold run; appends its result line
# to $tmp/<side>.<workload>.runs as "seed<TAB>json".
failed=0
run() {
	side=$1 tree=$2 wl=$3 seed=$4
	out=$(cd "$tree" && "$tmp/bench-$side" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 \
		-outdir "$tmp/out-$side" 2>"$tmp/stderr") || {
		echo "bench-pairs: $side run of $wl (seed $seed) reported failures:" >&2
		tail -n 5 "$tmp/stderr" >&2
		failed=1
	}
	line=$(printf '%s\n' "$out" | tail -n 1)
	case $line in
	'{"correct"'*) printf '%s\t%s\n' "$seed" "$line" >>"$tmp/$side.$wl.runs" ;;
	*) echo "bench-pairs: $side run of $wl (seed $seed) printed no result line" >&2 && failed=1 ;;
	esac
}

for wl in $workloads; do
	i=0
	while [ "$i" -lt "$pairs" ]; do
		seed=$((seed0 + i))
		echo "bench-pairs: $wl pair $((i + 1))/$pairs (seed $seed)" >&2
		if [ $((i % 2)) -eq 0 ]; then
			run base "$tmp/base" "$wl" "$seed"
			run new "$root" "$wl" "$seed"
		else
			run new "$root" "$wl" "$seed"
			run base "$tmp/base" "$wl" "$seed"
		fi
		i=$((i + 1))
	done
done

# report <side> <commit>: the side's runs as a `bench -out` file.
report() {
	side=$1 commit=$2
	cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
	printf '{"fingerprint":{"cpu":"%s","nproc":%s,"commit":"%s"},"seed":%s,"seconds":%s,"workloads":[' \
		"$cpu" "$(getconf _NPROCESSORS_ONLN)" "$commit" "$seed0" "$seconds"
	wsep=
	for wl in $workloads; do
		[ -f "$tmp/$side.$wl.runs" ] || continue
		printf '%s{"name":"%s","runs":[' "$wsep" "$wl"
		awk -F '\t' '{ sub(/^\{"correct":[a-z]*,/, "", $2); printf "%s{\"seed\":%s,%s", (NR > 1 ? "," : ""), $1, $2 }' "$tmp/$side.$wl.runs"
		printf ']}'
		wsep=,
	done
	printf ']}\n'
}
report base "$(git rev-parse "$base")" >"$tmp/base.json"
report new "$(git rev-parse HEAD)+worktree" >"$tmp/new.json"

status=0
"$tmp/bench-new" -compare "$tmp/base.json" "$tmp/new.json" || status=1

# Wins per pair: run i of each side ran on the same seed, back to back.
echo
printf '%-16s %-26s %s\n' workload metric "wins/pairs (new better than base on the same seed; ties count for neither)"
for wl in $workloads; do
	[ -f "$tmp/base.$wl.runs" ] && [ -f "$tmp/new.$wl.runs" ] || continue
	awk -F '\t' -v wl="$wl" '
		FILENAME == ARGV[1] {
			# "name": "x" ... "better": "lower|higher" inside end_to_end
			if ($0 ~ /"end_to_end"/) e2e = 1
			if ($0 ~ /"per_layer"/) e2e = 0
			if (e2e && match($0, /"name": "[a-z_0-9]*"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
			if (e2e && match($0, /"better": "[a-z]*"/)) { better[name] = substr($0, RSTART + 11, RLENGTH - 12); order[++n] = name }
			next
		}
		{
			side = (FILENAME == ARGV[2]) ? "b" : "n"
			for (k = 1; k <= n; k++) {
				if (match($2, "\"" order[k] "\":\\{\"value\":[^,]*")) {
					v = substr($2, RSTART, RLENGTH); sub(/.*:/, "", v)
					val[side, $1, order[k]] = v + 0; seeds[$1] = 1
				}
			}
		}
		END {
			for (k = 1; k <= n; k++) {
				m = order[k]; wins = 0; total = 0
				for (s in seeds) {
					if (!((("b" SUBSEP s SUBSEP m) in val) && (("n" SUBSEP s SUBSEP m) in val))) continue
					total++
					b = val["b", s, m]; x = val["n", s, m]
					if ((better[m] == "lower" && x < b) || (better[m] == "higher" && x > b)) wins++
				}
				printf "%-16s %-26s %d/%d\n", wl, m, wins, total
			}
		}' BENCHMARK.json "$tmp/base.$wl.runs" "$tmp/new.$wl.runs"
done

if [ "$failed" -ne 0 ]; then
	echo "bench-pairs: at least one run had failed operations" >&2
	status=1
fi
exit $status
