#!/usr/bin/env bash
# Run the concurrency-bearing crates under ThreadSanitizer: real
# threads, real sockets, instrumented synchronization — the dynamic
# complement to the model checks (which explore the sweep pool's and
# the serve drain's schedules under a preemption bound, with timeouts
# unexplored; TSan samples whole runs of the real code).
#
# Needs a nightly toolchain with rust-src for -Zbuild-std:
#   rustup toolchain install nightly --component rust-src
#
# Degrades gracefully (exit 0 with a notice) when the toolchain is
# missing, so CI can mark the job non-blocking.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v rustup >/dev/null 2>&1; then
    echo "tsan.sh: rustup not found; skipping (install rustup + nightly with rust-src to run)"
    exit 0
fi
if ! rustup run nightly rustc --version >/dev/null 2>&1; then
    echo "tsan.sh: nightly toolchain not available; skipping"
    echo "         (rustup toolchain install nightly --component rust-src)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    echo "tsan.sh: nightly rust-src component not installed; skipping"
    exit 0
fi

host="$(rustup run nightly rustc -vV | sed -n 's/^host: //p')"
export RUSTFLAGS="${RUSTFLAGS:+${RUSTFLAGS} }-Zsanitizer=thread"
# TSan needs std built with the same instrumentation.
for crate in mobicore-sweep mobicore-serve mobicore-analyze; do
    echo "== cargo test -p ${crate} (ThreadSanitizer, ${host}) =="
    rustup run nightly cargo test -p "${crate}" \
        -Zbuild-std --target "${host}"
done
