#!/usr/bin/env sh
# Repo verification: build, full test suite, and the paper-tables golden.
# Run from the repository root. Exits non-zero on any failure.
set -eu

cd "$(dirname "$0")"

# The paper-tables output lives in a private scratch directory, so two
# checkouts verifying at once never share one.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== differential oracle fuzz smoke (200 fixed-seed cases) =="
cargo test -q -p oracle --release

# The engine crates deny clippy's panic lints at their roots (unwrap_used,
# expect_used, panic, unreachable, todo, unimplemented); each excused site
# carries a reasoned #[expect]. The second pass compiles the armed fault
# registry, whose Panic fault's expectation only exists under `faults`.
echo "== cargo clippy (deny warnings; panic lints in engine crates) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features faults -- -D warnings

echo "== cargo doc (deny warnings: every intra-doc link resolves and is public) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# checkpoint/guard scope every file of crates/core/src/algorithm/, so the
# algorithms behind repro stay governed like the engine they are diffed against.
echo "== cube_lint (workspace invariants: checkpoint, guard, wildcard, atomic; unused allows; algorithm/* incl. repro) =="
cargo run -q --release -p cube-lint --bin cube_lint -- --root .

# ROADMAP item 9 wants fewer than 60 reasoned suppressions in the linted
# code: clippy #[expect]s plus cube_lint allows. The count may only fall.
# When it does, lower the number here.
echo "== suppression ratchet (#[expect( plus cube-lint: allow() =="
max_allows=52
allows=$(grep -r --include='*.rs' -e '#\[expect(' -e 'cube-lint: allow(' crates | grep -v '^crates/lint/' | wc -l)
if [ "$allows" -gt "$max_allows" ]; then
    echo "$allows suppression lines outside crates/lint, over the recorded $max_allows" >&2
    exit 1
fi
echo "$allows suppression lines (recorded ceiling: $max_allows)."

if [ "${LINT_NIGHTLY:-0}" = "1" ]; then
    # Opt-in deep memory-model pass: only meaningful where a nightly
    # toolchain with miri is installed; silently skipped otherwise.
    if rustup toolchain list 2>/dev/null | grep -q nightly \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q "miri.*(installed)"; then
        echo "== cargo miri test -p dc-relation (LINT_NIGHTLY=1) =="
        cargo +nightly miri test -p dc-relation
    fi
fi

# One test thread: the fault registry is process-global, and the suite's
# gate only serializes the tests that arm faults — an ungated test running
# beside them would walk into their armed sites.
echo "== fault-injection suite (--features faults) =="
cargo test -q --features faults --test governance -- --test-threads=1

echo "== dc_benchmark smoke (the pinned surface benchmark/ calls still builds and answers) =="
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

echo "== dc-serve smoke (TCP round trip, admission shed, malformed query survival, 50 statements on one connection in < 1 s) =="
cargo run -q --release -p dc-sql --bin dc_serve -- --smoke

echo "== paper_tables vs golden =="
cargo run -q --release -p dc-bench --bin paper_tables > "$scratch/paper_tables_actual.txt"
if diff -u paper_tables_output.txt "$scratch/paper_tables_actual.txt"; then
    echo "paper_tables output matches the checked-in golden."
else
    echo "paper_tables output DIVERGES from paper_tables_output.txt" >&2
    exit 1
fi

echo "All checks passed."
