#!/usr/bin/env bash
# Which of the root module's statements a measurement reaches.
#
#   M  the benchmark: bench/ built with coverage over every package of the
#      root module, run once over each of its five workloads at seed 1;
#   T  tier-1: go test ./... with the same coverage packages.
#
# Writes M.func.txt and T.func.txt (go tool covdata func: one line per
# function, its statement coverage) and summary.txt, the root module's
# statement count split into M, T minus M, and neither, to the directory
# given as the first argument (default .coverage/ at the repository root).
#
# Two listings, not one of T minus M: on Go 1.24, go tool covdata subtract
# panics with "decreasing dir index" on directories that hold the counters
# of several binaries, which both of these do. summary.txt does the set
# arithmetic on the text profiles instead.
#
# bench/ is only built here, never edited; the build and the raw counters
# go to a temporary directory.
#
# usage: bash scripts/coverage.sh [outdir]
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${1:-$root/.coverage}
mkdir -p "$out"
out=$(cd "$out" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/M" "$work/T"

(cd "$root/bench" && go build -cover -coverpkg=kvaccel/... -o "$work/bench" .)
for w in fill_stall fill_stock mixed_w8 ycsb_b_hot serve_closed; do
	echo "coverage: benchmark workload $w" >&2
	GOCOVERDIR="$work/M" "$work/bench" -workload "$w" -seed 1 -trace 0 >/dev/null
done

echo "coverage: tier-1" >&2
(cd "$root" && go test -count=1 -cover -coverpkg=kvaccel/... ./... -args -test.gocoverdir="$work/T" >/dev/null)

go tool covdata func -i="$work/M" >"$out/M.func.txt"
go tool covdata func -i="$work/T" >"$out/T.func.txt"
go tool covdata textfmt -i="$work/M" -o="$work/M.prof"
go tool covdata textfmt -i="$work/T" -o="$work/T.prof"

# A text profile has one line per block, "file:range statements count",
# repeated once per binary that linked the block's package; a block counts
# as reached when any binary ran it. bench/'s own package is not part of
# the root module.
awk '
	FNR == 1 { set = FILENAME ~ /M\.prof$/ ? "M" : "T"; next }
	$1 ~ /^kvaccel\/bench\// { next }
	{ stmts[$1] = $2; if ($3 > 0) hit[set, $1] = 1 }
	END {
		for (b in stmts) {
			all += stmts[b]
			if (("M", b) in hit) m += stmts[b]
			else if (("T", b) in hit) t += stmts[b]
			else none += stmts[b]
		}
		printf "statements %d: M %d, T-M %d, neither %d\n", all, m, t, none
	}' "$work/M.prof" "$work/T.prof" | tee "$out/summary.txt"
