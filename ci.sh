#!/usr/bin/env bash
# Tier-1 verification for the SDM workspace. Run from anywhere; everything
# is relative to the repository root.
#
#   ./ci.sh          # full gate: fmt, clippy, analyze, rustdoc, build, test,
#                    # the exact BENCH_hotpath.json gate (exp_hotpath --check),
#                    # the exact BENCH_paper.json gate (exp_paper --check),
#                    # bench compile, and a release build of the benchmark/
#                    # harness against the workspace crates
#   ./ci.sh quick    # skip fmt/clippy/analyze/rustdoc; the no-unwrap,
#                    # no-print, documented-unsafe, no-wall-clock, hasher and
#                    # lock contracts are clippy lints (crates/clippy.toml,
#                    # lib.rs lines), so only the full gate's clippy step
#                    # checks them
#   ./ci.sh bench    # run the criterion benches (quick shim)
#   ./ci.sh benchmark  # the benchmark/ package's own gate (benchmark/check.sh:
#                    # fmt, clippy, harness tests, smoke run of every workload
#                    # on both paths)
#   ./ci.sh miri     # opt-in: curated test subset under Miri (needs a
#                    # nightly toolchain with the miri component)
#   ./ci.sh asan     # opt-in: curated test subset under AddressSanitizer
#                    # (needs a nightly toolchain with rust-src)
#
# A sanitizer lane whose toolchain is missing exits 0 but reads "not run",
# never green: it prints a NOTICE and a GitHub `::warning::` annotation, and
# appends "<lane>: not run" to $GITHUB_STEP_SUMMARY when that is set.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

mode="${1:-full}"
case "$mode" in
    full | quick | bench | benchmark | miri | asan) ;;
    *)
        echo "ci.sh: unknown mode '$mode' (full, quick, bench, benchmark, miri, asan)" >&2
        exit 2
        ;;
esac

# Reports a sanitizer lane that could not run: a warning annotation and a
# step-summary line, so the skip is visible in the run rather than a pass.
lane_not_run() {
    local lane="$1" reason="$2"
    echo "::warning title=${lane} lane not run::${reason}"
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        echo "${lane}: not run (${reason})" >>"$GITHUB_STEP_SUMMARY"
    fi
}

if [[ "$mode" == "benchmark" ]]; then
    echo "==> benchmark/check.sh (fmt, clippy, harness tests, smoke run)"
    benchmark/check.sh
    echo "Benchmark lane passed."
    exit 0
fi

if [[ "$mode" == "miri" ]]; then
    if ! cargo +nightly miri --version >/dev/null 2>&1; then
        echo "=============================================================="
        echo "NOTICE: miri lane SKIPPED — no nightly toolchain with the miri"
        echo "component is installed (cargo +nightly miri --version failed)."
        echo "Install with: rustup toolchain install nightly --component miri"
        echo "This is a skip, not a pass: nothing was checked."
        echo "=============================================================="
        lane_not_run miri "no nightly toolchain with the miri component"
        exit 0
    fi
    echo "==> miri setup"
    cargo +nightly miri setup
    # Curated subset: the unsafe-adjacent and concurrency-heavy suite
    # (cache engine units incl. the shared tier's concurrent tests) — small
    # enough to finish under Miri's interpreter. Isolation is disabled so
    # proptest can read its persisted failure seeds.
    echo "==> curated test subset under Miri"
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test --locked -q -p sdm-cache --lib
    echo "Miri lane passed."
    exit 0
fi

if [[ "$mode" == "asan" ]]; then
    # ASan needs -Zsanitizer (nightly-only) plus -Zbuild-std, which needs
    # the rust-src component in the nightly sysroot.
    if ! cargo +nightly --version >/dev/null 2>&1 \
        || [[ ! -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]]; then
        echo "=============================================================="
        echo "NOTICE: asan lane SKIPPED — needs a nightly toolchain with the"
        echo "rust-src component (-Zsanitizer + -Zbuild-std are nightly-only)."
        echo "Install with: rustup toolchain install nightly --component rust-src"
        echo "This is a skip, not a pass: nothing was checked."
        echo "=============================================================="
        lane_not_run asan "no nightly toolchain with the rust-src component"
        exit 0
    fi
    echo "==> curated test subset under AddressSanitizer"
    RUSTFLAGS="-Zsanitizer=address" \
        cargo +nightly test --locked -q -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p sdm-cache --lib
    RUSTFLAGS="-Zsanitizer=address" \
        cargo +nightly test --locked -q -Zbuild-std --target x86_64-unknown-linux-gnu \
        --test kernel_equivalence
    echo "ASan lane passed."
    exit 0
fi

if [[ "$mode" == "bench" ]]; then
    echo "==> cargo bench --workspace (quick criterion shim)"
    cargo bench --locked --workspace
    echo "Bench lane passed."
    exit 0
fi

if [[ "$mode" == "full" ]]; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check

    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --locked --workspace --all-targets -- -D warnings

    echo "==> sdm-analyze (unreferenced exports; its self-tests run with cargo test)"
    cargo run --locked --release -p sdm-analyze

    echo "==> cargo doc --workspace --document-private-items (a broken doc link fails)"
    RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace --document-private-items
fi

echo "==> cargo build --release --workspace (lib, bins, examples)"
cargo build --locked --release --workspace --lib --bins --examples

echo "==> cargo test --workspace"
cargo test --locked -q --workspace --no-fail-fast

echo "==> zero_alloc unoptimised (an allocation the optimiser removes must still count)"
cargo test --locked -q --test zero_alloc --config profile.test.opt-level=0

echo "==> cargo test fault_injection + model_update (pinned-seed fault-plan invariants)"
cargo test --locked -q --test fault_injection --test model_update

echo "==> kernel equivalence with the pooling kernel forced to scalar"
# The SIMD kernels' bit-identity contract is covered by the default run;
# this leg proves the SDM_POOL_KERNEL escape hatch works and that the
# whole hot path (auto_kernel dispatch included) serves on the scalar
# fallback — what a host without AVX2 would run.
SDM_POOL_KERNEL=scalar cargo test --locked -q --test kernel_equivalence --test zero_alloc

echo "==> exp_hotpath --check (deterministic scenarios equal BENCH_hotpath.json; writes nothing)"
cargo run --locked --release -q -p sdm-bench --bin exp_hotpath -- --check >/dev/null

if [[ "$mode" == "full" ]]; then
    echo "==> exp_paper --check (paper scoreboard equals BENCH_paper.json; writes nothing)"
    cargo run --locked --release -q -p sdm-bench --bin exp_paper -- --check >/dev/null
fi

echo "==> cargo bench --no-run --workspace"
cargo bench --locked --no-run --workspace

echo "==> benchmark harness builds against the workspace crates"
# benchmark/ is its own package (BENCHMARK.json) with path dependencies on
# crates/*: an API change that breaks its compile surface must fail here,
# not in the perf pipeline. './ci.sh benchmark' runs its full gate.
cargo build --locked --release --manifest-path benchmark/Cargo.toml

echo "CI gate passed."
