#!/usr/bin/env python3
"""Compare the reports of two benchmark checkouts, e.g. a parent commit and a change.

    python3 bench/compare.py OLD/bench/out NEW/bench/out

For every (workload, seed, trace) report present in both directories, prints
whether the ``log.csv`` fingerprint changed and the new/old ratio of every
metric.  A changed fingerprint means the change altered the bytes a solve
writes; it is reported, not judged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    return {p.name: json.loads(p.read_text()) for p in sorted(directory.glob("report-*.json"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    old, new = (load(Path(a)) for a in argv)
    common = sorted(set(old) & set(new))
    if not common:
        print("no report present in both directories")
        return 1
    changed = 0
    for name in common:
        a, b = old[name], new[name]
        same = a["report"]["fingerprint"] == b["report"]["fingerprint"]
        changed += not same
        print(f"{name[len('report-'):-len('.json')]}: log.csv {'unchanged' if same else 'CHANGED'}")
        if not same:
            for seed, digest in b["report"]["log_sha256"].items():
                if a["report"]["log_sha256"].get(seed) != digest:
                    print(f"  instance {seed}: {a['report']['log_sha256'].get(seed)} -> {digest}")
        for key, m in b["result"]["metrics"].items():
            before = a["result"]["metrics"].get(key, {}).get("value")
            was = f"{before:.6g}" if before is not None else "-"
            ratio = f"{m['value'] / before:.3f}x" if before else "n/a"
            print(f"  {key:40s} {was:>12} -> {m['value']:<12.6g} {m['unit']:6s} {ratio}")
    print(f"{changed} of {len(common)} fingerprints changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
