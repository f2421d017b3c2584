"""Check that the traced run's counts are deterministic.

Runs ``run.py --trace 1`` twice per workload with one seed, one run after
the other, and requires every count metric (calls, candidate subsets, subset
bounds, rows, hits, LP outcomes) and the output digest to match exactly.
Comparisons of counts across machines rest on this.  Run from the root of a
checkout:

    python3 perfbench/check_counts.py --seed 1 [--workload shadows ...]

Exit code 0 when every workload matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("shadows", "contain", "hull", "reliability")


def traced_counts(workload: str, seed: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    counts = {
        name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"
    }
    return counts, info["output_sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload:
        first, digest1 = traced_counts(workload, args.seed)
        second, digest2 = traced_counts(workload, args.seed)
        diff = sorted(k for k in first.keys() | second.keys()
                      if first.get(k) != second.get(k))
        same = not diff and digest1 == digest2
        ok &= same
        print(f"{workload:<12} {len(first)} counts, "
              f"{'identical' if same else 'DIFFERENT: ' + ', '.join(diff or ['digest'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
