#!/usr/bin/env bash
# Run the concurrency-bearing crates under Miri (interpreter-level UB
# and weak-memory checking of the whole crates, complementing the
# model checks of the sweep pool and serve drain, which explore only
# those two files).
#
# Needs a nightly toolchain with the miri component:
#   rustup toolchain install nightly --component miri
#
# Degrades gracefully (exit 0 with a notice) when the toolchain is
# missing, so CI can mark the job non-blocking and local runs on
# stable-only machines don't fail.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v rustup >/dev/null 2>&1; then
    echo "miri.sh: rustup not found; skipping (install rustup + nightly with miri to run)"
    exit 0
fi
if ! rustup run nightly cargo miri --version >/dev/null 2>&1; then
    echo "miri.sh: nightly toolchain with miri not available; skipping"
    echo "         (rustup toolchain install nightly --component miri)"
    exit 0
fi

# Seeds weak-memory emulation and detects data races, leaks, and UB.
# -Zmiri-many-seeds widens the schedule sample on the threaded tests.
export MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}"

# The crates whose concurrency the model checker covers at replica
# level: run their real tests under the interpreter. sim/experiments
# are pure compute and too slow under Miri to be worth the wall-clock.
for crate in mobicore-sweep mobicore-analyze; do
    echo "== cargo miri test -p ${crate} =="
    rustup run nightly cargo miri test -p "${crate}"
done

# serve's loopback tests need real sockets, which Miri does not
# provide; run its unit tests only (integration tests are skipped via
# --lib --bins).
echo "== cargo miri test -p mobicore-serve (lib only) =="
rustup run nightly cargo miri test -p mobicore-serve --lib
