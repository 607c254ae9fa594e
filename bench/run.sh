#!/usr/bin/env bash
# The benchmark's one command: build bench/ from source, then run it with
# the arguments given. Everything the build writes stays under
# .bench_build/ at the root of the checkout (Go's build cache included),
# so a run reads and writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$here/../.bench_build"
build=$(cd "$here/../.bench_build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
