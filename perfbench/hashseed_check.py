"""Check that mclie's reports do not depend on Python's string-hash seed.

    python3 perfbench/hashseed_check.py

Runs one small op of each workload in a child process under
PYTHONHASHSEED=1 and again under PYTHONHASHSEED=2, and requires the text
and --json digests to be equal between the two and equal to
expected.json.  Exits 0 when they are, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads

# (workload, start of the op key): a cheap op of each workload
SMALL_OPS = [
    ("fp-cohomology", "verify free-product-cohomology heisenberg abelian:1:0 --weight 5"),
    ("lie-homology", "homology f_xa:10"),
    ("mc-moduli", "mc-moduli g_S:16"),
    ("localize", "localize slot 5"),
]


def small_ops(work):
    ops = []
    for workload, prefix in SMALL_OPS:
        if workload == "localize":
            candidates = workloads.make_ops(workload, 0, work)
        else:
            candidates = [op for alts in workloads.POOLED[workload]() for op in alts]
        ops.append(next(op for op in candidates if op.key.startswith(prefix)))
    return ops


def child():
    os.chdir(run.ROOT)
    main = run.import_mclie()
    out = {}
    with run.work_dir("hashseed") as work:
        for op in small_ops(work):
            _, rc, text, err, payload = run.execute(main, op, work)
            out[op.key] = {"rc": rc, "text": run.digest(text, op, work),
                           "json": run.digest(payload or "", op, work)}
    print(json.dumps(out))


def parent() -> int:
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                              env=env, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    with open(run.EXPECTED) as f:
        expected = json.load(f)
    ok = True
    for key, first in results[0].items():
        second = results[1][key]
        want = {"text": expected[key]["text"], "json": expected[key]["json"]}
        same = first == second
        golden = {k: first[k] for k in ("text", "json")} == want and first["rc"] == 0
        print("%-70s hash seeds agree: %s, matches expected.json: %s" % (key, same, golden))
        ok = ok and same and golden
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(parent())
