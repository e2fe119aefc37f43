"""Write perfbench/expected.json: the SHA-256 of the text report and of the
``--json`` payload of every command line the workloads can generate.

    python3 perfbench/make_expected.py

Run it only on a commit whose output is known good; the benchmark then
requires every later commit to reproduce these reports byte for byte.
Each op must also pass its hand-derived check here.  The localize reports
are hashed with the seeded ``--at`` element masked; they must agree across
the seeds tried below.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads
from workloads import Op


def record(main, op: Op, work: str, out: dict):
    _, rc, text, err, payload = run.execute(main, op, work)
    reason = op.check(text) if rc == 0 else "exit %r: %s" % (rc, err)
    if reason or payload is None:
        sys.exit("%s: %s" % (" ".join(op.argv), reason or "no --json payload"))
    digests = {"text": run.digest(text, op, work), "json": run.digest(payload, op, work)}
    if out.setdefault(op.key, digests) != digests:
        sys.exit("%s: report depends on the seed" % op.key)
    print("%-90s %s" % (op.key[:90], digests["text"][:12]), flush=True)


def main():
    os.chdir(run.ROOT)
    mclie_main = run.import_mclie()
    out: dict = {}
    with run.work_dir("expected") as work:
        for items in workloads.POOLED.values():
            for alternatives in items():
                for op in alternatives:
                    record(mclie_main, op, work, out)
        for seed in (0, 1):
            for op in workloads.make_ops("localize", seed, work):
                record(mclie_main, op, work, out)
    with open(run.EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d entries to %s" % (len(out), run.EXPECTED))


if __name__ == "__main__":
    main()
