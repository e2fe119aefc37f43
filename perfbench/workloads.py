"""Seeded workloads for the mclie benchmark.

A workload is a closed loop of one client: a fixed list of ``mclie`` CLI
invocations run in sequence, each one after the previous has finished.
The seed draws the order of the list, how each command line is spelled,
and, for ``localize``, the definition files themselves.  What sets the
cost of a list (which algebras, which weights and sizes, which block
shapes) is fixed per workload, so every seed gives the same amount of
work and a change in ``batch_s`` means a change in the program.

Every op carries its own check.  Hand-derivable answers are checked
here; the SHA-256 of the text report and of the ``--json`` payload is
checked in ``run.py`` against ``expected.json``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

# Command lines name the run's work directory by this placeholder; run.py
# substitutes the directory before an op runs and masks it back out of the
# reports before hashing, so runs that overlap in one checkout never share
# a file and the digests do not depend on the directory.
WORK = "<work>"
JSON_OUT = WORK + "/op.json"

# A check reads the text report and returns the reason it is wrong, or None.
Check = Callable[[str], Optional[str]]


@dataclass
class Op:
    argv: list[str]
    key: str  # key of the expected digests in expected.json
    check: Check
    # substrings of the report that echo seeded inputs, replaced by a
    # placeholder before hashing (localize only: its files are seeded)
    masks: dict[str, str] = field(default_factory=dict)


def _lines(text: str, pattern: str) -> list[tuple[str, ...]]:
    return [m.groups() for m in re.finditer(pattern, text, re.M)]


def _with_json(argv: list[str]) -> list[str]:
    return argv + ["--json", JSON_OUT]


def _verdict_pass(text: str, key: str) -> Optional[str]:
    if "%s: PASS" % key not in text.splitlines():
        return "verdict %s is not PASS" % key
    return None


# -- fp-cohomology -------------------------------------------------------------

# (g, h, weight): free products whose CE cohomology is compared with the
# factors'.  Cost is dominated by CEComplex.__init__ (d_II).
FP_POOL = [
    ("heisenberg", "abelian:1:0", 5),
    ("heisenberg", "abelian:1:0", 6),
    ("abelian:2:0", "abelian:1:0", 6),
    ("abelian:3:0", "abelian:1:0", 5),
]


def fp_argv(g: str, h: str, w: int, spelling: int) -> list[str]:
    if spelling == 0:
        argv = ["verify", "free-product-cohomology", g, h, "--weight", str(w)]
    else:
        argv = ["verify", "free-product-cohomology", "--builtin", g,
                "--builtin", h, "--weight", str(w)]
    return _with_json(argv)


def check_fp(text: str) -> Optional[str]:
    cells = _lines(text, r"^  w=\d+,deg=-?\d+ = (\d+)\|(\d+)  \[(.*)\]$")
    if not cells:
        return "no cohomology cells reported"
    for prod, fac, flag in cells:
        if prod != fac or flag != "faithful window":
            return "cell %s|%s flagged %r" % (prod, fac, flag)
    return _verdict_pass(text, "free-product-cohomology")


def fp_items() -> list[list[Op]]:
    return [[Op(argv, " ".join(argv), check_fp)
             for argv in (fp_argv(g, h, w, 0), fp_argv(g, h, w, 1))]
            for g, h, w in FP_POOL]


# -- lie-homology --------------------------------------------------------------

LIE_WEIGHTS = (10, 11)
HARRISON = ("omega:1:3", 5)
# Omega(Delta^1) in polynomial degree <= 3: 0-forms 1, t, t^2, t^3 and
# 1-forms dt, t dt, t^2 dt; the Harrison generators are the 6 forms of the
# augmentation ideal, at any weight.
HARRISON_GENERATORS = 6


def homology_argv(m: int, spelling: int) -> list[str]:
    return _with_json([
        ["homology", "f_xa:%d" % m],
        ["homology", "--builtin", "f_xa:%d" % m],
        ["homology", "f_xa", "--weight", str(m)],
    ][spelling])


def harrison_argv(spelling: int) -> list[str]:
    ref, w = HARRISON
    if spelling == 0:
        return _with_json(["harrison", ref, "--weight", str(w)])
    return _with_json(["harrison", "--builtin", ref, "--weight", str(w)])


def check_f_xa_homology(text: str) -> Optional[str]:
    # f_xa is the free dgla on a, x with d(x) = -1/2 [x,x]; it is
    # quasi-isomorphic to Q a, so H_0 = 1 and every other degree vanishes.
    rows = _lines(text, r"^  H_(-?\d+) = (\d+)  \[(.*)\]$")
    if not rows:
        return "no homology reported"
    for n, dim, flag in rows:
        want = 1 if n == "0" else 0
        if int(dim) != want:
            return "H_%s = %s, expected %d" % (n, dim, want)
        if not flag.startswith("stable"):
            return "H_%s flagged %r" % (n, flag)
    if "0" not in [n for n, _, _ in rows]:
        return "H_0 missing"
    return None


def check_harrison(text: str) -> Optional[str]:
    gens = _lines(text, r"^  generators: (.*)$")
    if len(gens) != 1:
        return "no generator line"
    count = len(gens[0][0].split(", "))
    if count != HARRISON_GENERATORS:
        return "%d Harrison generators, expected %d" % (count, HARRISON_GENERATORS)
    return None


def lie_items() -> list[list[Op]]:
    items = [[Op(argv, " ".join(argv), check_f_xa_homology)
              for argv in (homology_argv(m, s) for s in range(3))]
             for m in LIE_WEIGHTS]
    items.append([Op(argv, " ".join(argv), check_harrison)
                  for argv in (harrison_argv(s) for s in range(2))])
    return items


# -- mc-moduli -----------------------------------------------------------------

MC_SIZES = (16, 18, 20)


def mc_argv(k: int, spelling: int) -> list[str]:
    return _with_json([
        ["mc-moduli", "g_S", "--size", str(k)],
        ["mc-moduli", "g_S:%d" % k],
        ["mc-moduli", "--builtin", "g_S:%d" % k],
    ][spelling])


def check_mc(k: int) -> Check:
    # g_S is free on x_1..x_k in degree -1 with d(x_s) = -1/2 [x_s,x_s]:
    # it models k points plus a base point, so pi_0 has k + 1 classes
    # represented by 0 and the x_s.  The completeness-certificate line is a
    # constant in the program and is not evidence.
    want = {"0"} | {"x%d" % s for s in range(1, k + 1)}

    def check(text: str) -> Optional[str]:
        counts = _lines(text, r"^  classes = (\d+)  \[")
        if [c for (c,) in counts] != [str(k + 1)]:
            return "classes %r, expected %d" % (counts, k + 1)
        reps = [r for (r,) in _lines(text, r"^  class \d+: (.*)$")]
        if len(reps) != k + 1 or set(reps) != want:
            return "representatives %r are not 0, x1..x%d" % (reps, k)
        return None
    return check


def mc_items() -> list[list[Op]]:
    return [[Op(argv, " ".join(argv), check_mc(k))
             for argv in (mc_argv(k, s) for s in range(3))]
            for k in MC_SIZES]


# -- localize ------------------------------------------------------------------

# A port of random_table_cdga from the acceptance tests (max_dim 16, at most
# 7 blocks).  Blocks: "field" p (p^2 = p), "dual" q (q^2 = 0), "exterior" r
# in cohomological degree -1, "cone" s -> ds.  Products of distinct blocks
# vanish, so the algebra is Q^(#p+1) times a square-zero part on the base
# component 1 - sum(p).
#
# The slots below fix the block multiset, which components of u are units
# and u's coefficients; the seed draws the block order (and so the labels)
# and which field blocks survive.  The cost of an op depends on its slot,
# not on the seed: exact arithmetic slows with the size of the
# coefficients, and the elimination's fill-in depends on their signs (one
# slot took 1.8 s or 2.5 s by the signs alone), so both are fixed.
#
# (field, dual, exterior, cone, surviving fields, |u| on the base component
# or 0 when u vanishes there)
LOC_SLOTS = [
    (1, 2, 2, 2, 1, 1),
    (4, 1, 1, 1, 4, 1),
    (1, 3, 2, 1, 1, 2),
    (3, 1, 2, 1, 3, 0),
    (5, 1, 0, 1, 3, 2),
    (2, 2, 2, 1, 2, 0),
]

UNIT = "one"  # parse_element reads "1" as a coefficient, so --at cannot name "1"


@dataclass
class TableCdga:
    text: str  # definition file contents
    at: str  # the --at element
    expected: dict[int, int]  # cohomological degree -> dim of H(A[u^-1])


def _signed_terms(terms: list[tuple[int, str]]) -> str:
    out = []
    for c, lab in terms:
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = "" if abs(c) == 1 else "%d " % abs(c)
        out.append("%s %s%s" % (sign, mag, lab))
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else text


def random_table_cdga(rng: random.Random, slot) -> TableCdga:
    n_field, n_dual, n_ext, n_cone, n_live, base = slot
    kinds = (["field"] * n_field + ["dual"] * n_dual + ["exterior"] * n_ext
             + ["cone"] * n_cone)
    rng.shuffle(kinds)
    basis = [(UNIT, 0)]
    mul = []
    diffs = []
    fields, duals, cone_cycles = [], [], []
    for i, kind in enumerate(kinds):
        if kind == "field":
            n = "p%d" % i
            basis.append((n, 0))
            mul.append("mul %s %s = 1 %s" % (n, n, n))
            fields.append(n)
        elif kind == "dual":
            n = "q%d" % i
            basis.append((n, 0))
            duals.append(n)
        elif kind == "exterior":
            basis.append(("r%d" % i, -1))
        else:
            n, dn = "s%d" % i, "ds%d" % i
            basis.extend([(n, -1), (dn, 0)])
            diffs.append("d %s = 1 %s" % (n, dn))
            cone_cycles.append(dn)
    lines = ["kind cdga"]
    lines += ["basis %s %d" % (lab, deg) for lab, deg in basis]
    lines.append("unit %s" % UNIT)
    lines += mul + diffs

    # u = c0 one + sum a_i p_i + nilpotent cocycles.  On the component of
    # p_i, u takes the value c0 + a_i; on the base component, c0 plus a
    # nilpotent.  A dead field gets a_i = -c0.  The j-th surviving field,
    # and the j-th cocycle of each nilpotent kind, get (-1)^j (1 + j % 2),
    # or 1 + j % 2 for a field when c0 > 0, so no c0 + a_i is 0.  Blocks of
    # one kind are alike, so the seeded order does not change the cost.
    def coeff(j: int) -> int:
        return (-1) ** j * (1 + j % 2)

    c0 = base
    live = set(rng.sample(fields, n_live))
    terms = [(c0, UNIT)]
    j = 0
    for p in fields:
        if p in live:
            terms.append((abs(coeff(j)) if c0 else coeff(j), p))
            j += 1
        else:
            terms.append((-c0, p))
    for kind in (duals, cone_cycles):
        terms += [(coeff(j), n) for j, n in enumerate(kind)]
    at = _signed_terms(terms)

    # H(A) = Q^(#p+1) in degree 0 plus the q (degree 0) and r (degree -1)
    # classes on the base component; cones are acyclic.
    expected = {0: n_live + (1 + n_dual if base else 0)}
    if base and n_ext:
        expected[-1] = n_ext
    return TableCdga("\n".join(lines) + "\n", at, expected)


def check_localize(expected: dict[int, int]) -> Check:
    def check(text: str) -> Optional[str]:
        got = {int(n): int(d) for n, d in _lines(text, r"^  H\^(-?\d+) = (\d+)  \[exact\]$")}
        if got != expected:
            return "H(A[u^-1]) = %r, expected %r" % (got, expected)
        return _verdict_pass(text, "exactness H(A[u^-1]) = H(A)[u^-1]")
    return check


def loc_ops(rng: random.Random, work_dir: str) -> list[Op]:
    ops = []
    for i, slot in enumerate(LOC_SLOTS):
        alg = random_table_cdga(rng, slot)
        name = "/loc%02d.def" % i
        with open(work_dir + name, "w") as f:
            f.write(alg.text)
        argv = _with_json(["localize", WORK + name, "--at", alg.at])
        ops.append(Op(argv, "localize slot %d" % i, check_localize(alg.expected),
                      masks={alg.at: "<u>"}))
    rng.shuffle(ops)
    return ops


# Workloads whose ops come from a fixed pool: each item is one op, given
# as its alternative spellings; the seed picks a spelling and the order.
POOLED = {
    "fp-cohomology": fp_items,
    "lie-homology": lie_items,
    "mc-moduli": mc_items,
}
WORKLOADS = ("fp-cohomology", "lie-homology", "mc-moduli", "localize")


def make_ops(workload: str, seed: int, work_dir: str) -> list[Op]:
    """The seeded list of ops; localize writes its definition files into
    `work_dir`, an existing directory."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "localize":
        return loc_ops(rng, work_dir)
    ops = [rng.choice(alternatives) for alternatives in POOLED[workload]()]
    rng.shuffle(ops)
    return ops
