#!/usr/bin/env python3
"""Per-layer compare: print each metric's delta between two benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are traced-run outputs: either the `out/<workload>-seed<n>.trace.json`
file a `--trace 1` run writes, or a saved standard output of any run (the last
line that parses as a result object is used). Each metric prints with its base
value, the new value, the absolute delta and the delta as a share of the base.
Metrics present on one side only are listed as such.
"""

import json
import sys


def load(path):
    """Return (metrics, provenance) from a trace file or a saved stdout."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "result" in doc:
            return doc["result"]["metrics"], doc.get("provenance", {})
    except json.JSONDecodeError:
        pass
    result, provenance = None, {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "metrics" in obj:
            result = obj
        elif "provenance" in obj:
            provenance = obj["provenance"]
    if result is None:
        sys.exit(f"compare.py: no result object in {path}")
    return result["metrics"], provenance


def fmt(v):
    return f"{v:.6g}"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    base, base_prov = load(argv[1])
    new, new_prov = load(argv[2])
    for key in ("workload", "seed", "git_commit", "cpu", "nproc"):
        b, n = base_prov.get(key), new_prov.get(key)
        if b != n:
            print(f"note: {key} differs: {b} -> {n}")
    names = list(base) + [k for k in new if k not in base]
    width = max((len(n) for n in names), default=10)
    print(f"{'metric':<{width}}  {'unit':<6} {'base':>12} {'new':>12} {'delta':>12} {'delta/base':>10}")
    for name in names:
        b, n = base.get(name), new.get(name)
        if b is None or n is None:
            side = "base" if n is None else "new"
            print(f"{name:<{width}}  only in {side}")
            continue
        bv, nv = b["value"], n["value"]
        share = f"{(nv - bv) / bv:+.1%}" if bv else "n/a"
        print(f"{name:<{width}}  {b['unit']:<6} {fmt(bv):>12} {fmt(nv):>12} {fmt(nv - bv):>12} {share:>10}")


if __name__ == "__main__":
    main(sys.argv)
