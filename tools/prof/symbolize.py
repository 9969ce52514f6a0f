#!/usr/bin/env python3
"""Flat profile from a sigprof.c dump.

    python3 tools/prof/symbolize.py PROFILE BINARY [--top N] [--by symbol|module]

Maps each sampled address through the dump's /proc/self/maps copy to an
offset in BINARY (a PIE executable) and looks it up in `nm -n BINARY`.
Samples outside BINARY are charged to the mapped file, e.g. [libc.so.6].
`--by module` sums OCaml symbols (camlLib__Mod.fn_123) per module.
"""
import argparse
import bisect
import collections
import os
import subprocess


def read_dump(path):
    addrs, maps = [], []
    with open(path) as f:
        f.readline()  # "samples N dropped M"
        for line in f:
            if line.startswith("maps"):
                break
            addrs.append(int(line, 16))
        for line in f:
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            name = fields[5] if len(fields) > 5 else ""
            maps.append((lo, hi, int(fields[2], 16), name))
    return addrs, maps


def read_symbols(binary):
    out = subprocess.run(["nm", "-n", binary], check=True, capture_output=True, text=True)
    syms = []
    for line in out.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "tTwW":
            syms.append((int(fields[0], 16), fields[2]))
    return [a for a, _ in syms], [n for _, n in syms]


def module_of(sym):
    return sym.split(".", 1)[0] if sym.startswith("caml") and "." in sym else sym


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("binary")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--by", choices=["symbol", "module"], default="symbol")
    args = ap.parse_args()
    addrs, maps = read_dump(args.profile)
    starts, names = read_symbols(args.binary)
    exe = os.path.realpath(args.binary)
    counts = collections.Counter()
    for a in addrs:
        m = next((m for m in maps if m[0] <= a < m[1]), None)
        if m is None:
            label = "[unmapped]"
        elif m[3] and os.path.realpath(m[3]) == exe:
            i = bisect.bisect_right(starts, a - m[0] + m[2]) - 1
            label = names[i] if i >= 0 else "[binary]"
        else:
            label = "[%s]" % (os.path.basename(m[3]) or "anon")
        counts[module_of(label) if args.by == "module" else label] += 1
    total = max(1, len(addrs))
    print("%d samples" % len(addrs))
    print("%5s %8s %7s  %s" % ("rank", "samples", "share", args.by))
    for rank, (label, n) in enumerate(counts.most_common(args.top), 1):
        print("%5d %8d %6.1f%%  %s" % (rank, n, 100.0 * n / total, label))


if __name__ == "__main__":
    main()
