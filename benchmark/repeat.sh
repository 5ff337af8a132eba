#!/usr/bin/env sh
# Run the full benchmark N times (default 2) and print min / median / max
# and the relative spread per workload x metric; the medians and spreads
# are also written to benchmark/out/repeat/merged.json, which --compare
# reads. SEED_STEP 0 (default) repeats seed 1996, so the exact counts must
# come out identical; SEED_STEP 1 takes another seed each time, which is
# how the benchmark's own steadiness rule is checked.
#
# usage: benchmark/repeat.sh [N] [SEED_STEP]
set -eu
cd "$(dirname "$0")/.."

n=${1:-2}
step=${2:-0}
out=benchmark/out/repeat

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/dc_benchmark

mkdir -p "$out"
files=""
i=0
while [ "$i" -lt "$n" ]; do
    "$bin" --seed $((1996 + i * step)) --out "$out/$i" > "$out/$i.log" 2>&1 ||
        { cat "$out/$i.log" >&2; exit 1; }
    files="$files $out/$i/results.json"
    i=$((i + 1))
done
# shellcheck disable=SC2086
"$bin" --merge "$out/merged.json" $files
