#!/bin/sh
# Golden outputs: regenerate the outputs whose SHA-256 digests
# test/golden.sha256 pins, and check them against the pins.
#
#   sh test/golden.sh [GROUP...]
#
# GROUP is one of table1, paper, grid, fault, top, fuzz, run256, obs and
# can64k (default: all nine).  Run it from the root of a checkout; it runs that
# checkout's CLI through dune.  The outputs land in golden-out/; the
# host-dependent lines (output paths, wallclock) are filtered out before
# hashing.  Exits non-zero if any pinned output differs.
set -eu

CUP="dune exec bin/cup_cli.exe --"
OUT=golden-out
SUMS=$(cd "$(dirname "$0")" && pwd)/golden.sha256
mkdir -p "$OUT"

# The table1 experiment at one job: its CSV and its printed tables.
table1() {
  $CUP exp table1 --jobs 1 --csv "$OUT/csv" \
    | grep -v '^(wrote ' > "$OUT/table1.txt"
  cp "$OUT/csv/table1.csv" "$OUT/table1.csv"
}

# The other eleven paper experiments at one job: their printed text
# and the eight CSVs they write.
paper() {
  rm -rf "$OUT/paper-csv"
  $CUP exp fig3 fig4 table2 table3 fig5 fig6 ablations overlays techniques \
    model justification --jobs 1 --csv "$OUT/paper-csv" \
    | grep -v '^(wrote ' > "$OUT/paper.txt"
  for f in "$OUT"/paper-csv/*.csv; do
    cp "$f" "$OUT/paper-$(basename "$f")"
  done
}

# What the paper groups leave out: all twelve experiments at paper
# scale over two jobs (text and nine CSVs), `cup sweep` at both scales
# and `cup run --runs`.
grid() {
  rm -rf "$OUT/grid-csv"
  $CUP exp --full --jobs 2 --csv "$OUT/grid-csv" \
    | grep -v '^(wrote ' > "$OUT/grid-full.txt"
  for f in "$OUT"/grid-csv/*.csv; do
    cp "$f" "$OUT/grid-full-$(basename "$f")"
  done
  $CUP sweep --rate 2.5 > "$OUT/grid-sweep.txt"
  $CUP sweep --full --rate 10 > "$OUT/grid-sweep-full.txt"
  $CUP run --nodes 256 --runs 4 > "$OUT/grid-runs.txt"
}

# A crash+loss run traced in both formats, and its summary.
fault() {
  set -- --nodes 48 --keys 2 --crash-rate 0.03 --loss-rate 0.2 \
    --loss-jitter 0.5 --seed 7
  $CUP run "$@" --trace-out "$OUT/fault.jsonl" \
    | grep -v -e '^trace:' -e 'wallclock' > "$OUT/fault.txt"
  $CUP run "$@" --trace-out "$OUT/fault.ctrace" > /dev/null
}

# Attribution tables.
top() {
  $CUP top --nodes 200 --keys 32 --seed 11 --rate 2 --duration 300 \
    | grep -v '^wallclock' > "$OUT/top.txt"
}

# The 200-seed fuzz sweep's verdict block.
fuzz() {
  $CUP fuzz --seeds 200 | grep -v '^wallclock' > "$OUT/fuzz.txt"
}

# A 256-node traced run.
run256() {
  $CUP run --nodes 256 --rate 10 --trace-out "$OUT/run256.jsonl" \
    | grep -v -e '^trace:' -e 'wallclock' > "$OUT/run256.txt"
}

# A 64-node fault run's span trace and metrics exposition.
obs() {
  $CUP run --nodes 64 --seed 42 --rate 0.5 --duration 400 \
    --crash-rate 0.02 --loss-rate 0.15 \
    --trace-out "$OUT/obs-trace.jsonl" \
    --metrics-out "$OUT/obs-metrics.prom" > /dev/null
}

# A 65,536-node run on each CAN placement, the largest overlay any pin
# builds.
can64k() {
  set -- --nodes 65536 --keys 8 --rate 20 --duration 100 --seed 11
  $CUP run "$@" --overlay can | grep -v 'wallclock' > "$OUT/can64k-random.txt"
  $CUP run "$@" --overlay can-grid | grep -v 'wallclock' > "$OUT/can64k-grid.txt"
}

[ $# -gt 0 ] || set -- table1 paper grid fault top fuzz run256 obs can64k
for group in "$@"; do
  case $group in
    table1 | paper | grid | fault | top | fuzz | run256 | obs | can64k) "$group" ;;
    *) echo "golden.sh: unknown group $group" >&2; exit 2 ;;
  esac
  grep -E "  $group[.-]" "$SUMS" | (cd "$OUT" && sha256sum -c -)
done
