"""One-shot layer-share report: each module's share of self time in the
traced run of every workload, as a Markdown table.

    python3 perfbench/layer_share.py

Runs ``run.py --seed 1 --trace 1`` once per workload, each in its own
process, one after the other.  Every seed does the same work, so one seed
gives the shares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads
from tracer import LAYERS

COLUMNS = LAYERS + ("cli",)


def main() -> int:
    print("| workload | " + " | ".join(COLUMNS) + " | traced batch s | overhead s |")
    print("|---" * (len(COLUMNS) + 3) + "|")
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        self_s = {layer: metrics["layer.%s.self_s" % layer]["value"] for layer in COLUMNS}
        total = sum(self_s.values())
        shares = " | ".join("%.1f%%" % (100.0 * self_s[layer] / total) for layer in COLUMNS)
        print("| %s | %s | %.2f | %.2f |" % (workload, shares, metrics["trace.batch_s"]["value"],
                                          metrics["trace.overhead_s"]["value"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
