#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh -workload build|churn|serve -seed N -seconds S -trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go cache, binary, traced-run results and CPU profiles) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
