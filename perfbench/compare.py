#!/usr/bin/env python3
"""Compare two benchmark artifacts (`run.py --artifact <file>`).

    python3 perfbench/compare.py <before.json> <after.json>

A wall-clock number means something only on the host that measured it,
so the comparison is refused (exit code 2) unless both artifacts come
from the same workload, trace mode and host: core count, CPU affinity,
kernel, CPU model and backend. The source revision is expected to
differ and is printed, not compared. Exact counts (see `run.py`) must
match; a difference is reported as such, not as a speed-up.
"""

import json
import sys

HOST_KEYS = ["nproc", "affinity", "kernel", "cpu_model", "backend"]


def refusal(a, b):
    """Why `a` and `b` may not be compared, or `None`."""
    for k in ["workload", "trace"]:
        if a[k] != b[k]:
            return f"{k} differs: {a[k]!r} vs {b[k]!r}"
    for k in HOST_KEYS:
        if a["host"].get(k) != b["host"].get(k):
            return f"host {k} differs: {a['host'].get(k)!r} vs {b['host'].get(k)!r}"
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
        a, b = json.load(fa), json.load(fb)
    why = refusal(a, b)
    if why:
        print(f"refused: {why}")
        sys.exit(2)
    print(f"{a['workload']} trace={a['trace']}  "
          f"{a['host']['revision']} -> {b['host']['revision']}")
    exact = set(a.get("exact", []))
    for k, va in a["metrics"].items():
        vb = b["metrics"].get(k)
        if va is None or vb is None:
            print(f"  {k:32s} {va!s:>14s} {vb!s:>14s}  not comparable")
        elif k in exact:
            print(f"  {k:32s} {va:14.6g} {vb:14.6g}  {'same' if va == vb else 'COUNT CHANGED'}")
        else:
            ratio = f"{vb / va:8.3f}x" if va else "     n/a"
            print(f"  {k:32s} {va:14.6g} {vb:14.6g}  {ratio}")


if __name__ == "__main__":
    main()
