#!/bin/sh
# Flat SIGPROF profile of one repo-benchmark workload:
#
#   sh tools/prof/profile.sh WORKLOAD [SECONDS]      (default 10 s)
#
# Builds sigprof.so if it is missing, builds the benchmark binary
# through benchmark/run.sh --quick, runs WORKLOAD for SECONDS under the
# sampler with run.sh's two MALLOC_ settings, and prints the top 25
# symbols, the per-module table and the run's GC summary (minor,
# promoted and major words, and collection counts, from the runtime's
# OCAMLRUNPARAM=v=0x400 report at exit).  The raw profile stays in
# tools/prof/WORKLOAD.prof (ignored by git).
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: sh tools/prof/profile.sh WORKLOAD [SECONDS]" >&2
  exit 2
fi
workload=$1
seconds=${2:-10}
cd "$(dirname "$0")/../.."
dir=$PWD/tools/prof
[ -f "$dir/sigprof.so" ] || cc -O2 -shared -fPIC -o "$dir/sigprof.so" "$dir/sigprof.c"
sh benchmark/run.sh --quick --workload "$workload" >/dev/null
bin=.bench_build/default/benchmark/draconis_bench.exe
out=$dir/$workload.prof
gc=$(MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=4294967296 \
  OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}v=0x400" \
  LD_PRELOAD=$dir/sigprof.so PROF_OUT=$out \
  "$bin" --workload "$workload" --seconds "$seconds" 2>&1 >/dev/null)
python3 "$dir/symbolize.py" "$out" "$bin" --top 25
echo
python3 "$dir/symbolize.py" "$out" "$bin" --by module --top 25
echo
echo "GC over the profiled run (warm-up, set-up samples and every rep):"
printf '%s\n' "$gc" \
  | grep -E '^(minor_words|promoted_words|major_words|minor_collections|major_collections|forced_major_collections):' \
  | sed 's/^/  /'
