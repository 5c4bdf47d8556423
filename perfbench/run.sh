#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload guest_long --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file stays under
# .bench_build/ at the root of the checkout. The last line of standard
# output is the result object; a failed build exits non-zero without one.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gomodcache" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off XDG_CONFIG_HOME="${out}/config"
S4E_COMMIT=unknown
if [ -d "${root}/.git" ]; then
	S4E_COMMIT="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export S4E_COMMIT
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" "$@"
