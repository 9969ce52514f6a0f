#!/bin/sh
# Builds the benchmark from source in the checkout that holds this file,
# then runs it; every argument is passed to draconis_bench.exe:
#
#   sh benchmark/run.sh --workload busy-short --seed 7 --seconds 10 --trace 0
#
# The build goes to .bench_build/ (compiler temporaries included) with
# the shared dune cache off, so nothing is written outside the checkout.
# Build output goes to stderr: the last stdout line stays the JSON result.
#
# The two MALLOC_ settings make glibc keep freed memory for reuse: large
# blocks (a 164k-slot queue register, a grown sample array) come from
# the heap rather than fresh mappings, and the heap is never trimmed.
# By default the allocator adapts its mmap threshold as blocks are
# freed, so consecutive set-ups alternate between recycled memory and
# fresh pages, and set-up time flips between two values.  Faulting in
# fresh pages is also the part a busy host slows down most.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
TMPDIR="$PWD/.bench_build/tmp"
MALLOC_MMAP_THRESHOLD_=33554432
MALLOC_TRIM_THRESHOLD_=4294967296
export TMPDIR MALLOC_MMAP_THRESHOLD_ MALLOC_TRIM_THRESHOLD_
dune build --root . --build-dir .bench_build --cache=disabled --display=quiet \
  ./benchmark/draconis_bench.exe >&2
exec ./.bench_build/default/benchmark/draconis_bench.exe "$@"
