"""Command-line front end: textual algebra definitions in, reproducible
structured reports out.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage or parse
error, 3 resource cap exceeded.  Every number in a report is printed next
to its exactness or stabilization flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .linalg import McLieError
from .dgla import (
    AxiomViolation,
    Dgla,
    disjoint_product,
    free_product_dgla,
    homology_stability,
)
from .cdga import (
    Cdga,
    CdgaAxiomViolation,
    idempotent_split,
    localization_exactness_report,
    localize,
)
from .cehar import (
    ce_cohomology,
    compare_free_product,
    harrison,
    minimal_model,
)
from .dgla import mc_residual
from .mc import (
    COMPONENT_N_MAX,
    derive_constraints,
    pi0_moduli,
    verify_component_decomposition,
    verify_theorem_f,
)
from .defs import element_degrees, load_algebra, parse_element

PASS, FAIL = "PASS", "FAIL"


class UsageError(McLieError):
    """The command line asks for something the subcommand cannot do."""

    exit_code = 2
    prefix = "error"


class Report:
    """Accumulates a human-readable report and a machine-readable mirror;
    identical inputs produce byte-identical output."""

    def __init__(self, command: str, params: dict):
        self.lines: list[str] = []
        self.data: dict = {"command": command, "parameters": params,
                           "results": {}}
        self.failed = False
        self.lines.append("command: %s" % command)
        for key in sorted(params):
            self.lines.append("  %s = %s" % (key, params[key]))

    def line(self, text: str):
        self.lines.append(text)

    def value(self, key: str, value, flag: str):
        self.lines.append("  %s = %s  [%s]" % (key, value, flag))
        self.data["results"][key] = {"value": value, "flag": flag}

    def verdict(self, key: str, ok: bool):
        self.lines.append("%s: %s" % (key, PASS if ok else FAIL))
        self.data["results"][key] = PASS if ok else FAIL
        if not ok:
            self.failed = True

    def emit(self, json_path=None) -> int:
        print("\n".join(self.lines))
        if json_path:
            with open(json_path, "w") as f:
                json.dump(self.data, f, sort_keys=True, indent=2, default=str)
                f.write("\n")
        return 1 if self.failed else 0


def _echo(args) -> str:
    return " ".join(args)


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError("expected an integer >= %d, got %s"
                                         % (low, text))
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a degree range a..b, got %s"
                                         % text)
    if lo > hi:
        raise argparse.ArgumentTypeError(
            "expected a degree range a..b with a <= b, got %s" % text)
    return lo, hi


def _load(ns, ref: str):
    """Load a definition for the subcommand, checking that it is of the
    kind the subcommand takes (ns.kind; None takes both)."""
    alg = load_algebra(ref, ns.size, ns.weight)
    if ns.kind is not None and not isinstance(alg, ns.kind):
        raise UsageError("%s is a %s; %s takes a %s" % (
            ref, "dgla" if isinstance(alg, Dgla) else "cdga", ns.cmd,
            ns.kind.__name__.lower()))
    return alg


def cmd_check(ns, argv) -> int:
    rep = Report(_echo(argv), {"definitions": ", ".join(ns.defs)})
    for ref in ns.defs:
        alg = _load(ns, ref)
        try:
            for law, n, cap in alg.verify_axioms():
                rep.value("skipped %s(%s)" % (law, ref), n,
                          "basis elements > cap %d" % cap)
            rep.verdict("axioms(%s)" % ref, True)
        except (AxiomViolation, CdgaAxiomViolation) as e:
            rep.line("  violation: %s" % e)
            rep.verdict("axioms(%s)" % ref, False)
    return rep.emit(ns.json)


def cmd_homology(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    rep = Report(_echo(argv), {"definition": ns.defs[0]})
    if isinstance(alg, Dgla) and alg.presentation is not None:
        table = {}
        for n, v in homology_stability(alg).items():
            flag = "stable" if v["stable"] else "unstable"
            if v.get("edge"):
                flag += ", edge +%d" % v["edge"]
            table[n] = v["dim"], flag
    else:
        h = alg.homology()
        table = {n: (h.dim(n), "exact") for n in h.degrees()}
    for n in sorted(table):
        if ns.range is None or ns.range[0] <= n <= ns.range[1]:
            rep.value("H_%d" % n, *table[n])
    return rep.emit(ns.json)


def cmd_ce(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    table = ce_cohomology(alg, ns.words, ns.range)
    rep = Report(_echo(argv), {"definition": ns.defs[0], "words": ns.words})
    for n in sorted(table):
        rep.value("H^%d" % n, table[n]["dim"], table[n]["flag"])
    return rep.emit(ns.json)


def cmd_harrison(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    h = harrison(alg, ns.weight)
    rep = Report(_echo(argv), {"definition": ns.defs[0], "weight": ns.weight})
    for n in h.dgla.space.degrees():
        rep.value("dim_%d" % n, h.dgla.space.dim(n), "weight <= %d" % ns.weight)
    gens = [name for name, _, _ in h.dgla.presentation.pres.generators]
    rep.line("  generators: %s" % ", ".join(gens))
    return rep.emit(ns.json)


def cmd_product(ns, argv) -> int:
    g = _load(ns, ns.defs[0])
    h = _load(ns, ns.defs[1])
    if ns.cmd == "free-product":
        p = free_product_dgla(g, h, ns.weight)
    else:
        p = disjoint_product(g, h, ns.weight)
    rep = Report(_echo(argv), {"definitions": ", ".join(ns.defs),
                               "weight": ns.weight})
    for n in p.space.degrees():
        rep.value("dim_%d" % n, p.space.dim(n), "weight <= %d" % ns.weight)
    if ns.cmd == "disjoint-product":
        rep.line("  distinguished MC element: %r" % p.distinguished_mc)
    return rep.emit(ns.json)


def cmd_mc_verify(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    xi = parse_element(ns.element, element_degrees(alg))
    residual = mc_residual(alg, xi)
    rep = Report(_echo(argv), {"definition": ns.defs[0], "element": ns.element})
    rep.value("residual", repr(residual), "exact")
    rep.verdict("maurer-cartan", residual.is_zero())
    return rep.emit(ns.json)


def cmd_mc_constraints(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    system = derive_constraints(alg, ns.simplex)
    rep = Report(_echo(argv), {"definition": ns.defs[0], "simplex": ns.simplex})
    rep.line("unknowns (coefficient forms):")
    for sym in sorted(system.unknowns):
        p = system.table.form_degree[sym]
        rep.line("  %s : %d-form on Delta^%d" % (sym, p, ns.simplex))
    rep.line("equations (one per basis component):")
    for text in system.pretty():
        rep.line("  " + text)
    rep.data["results"]["equations"] = system.pretty()
    return rep.emit(ns.json)


def cmd_mc_moduli(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    rep = Report(_echo(argv), {"definition": ns.defs[0],
                               "support": ns.support or "full"})
    moduli = pi0_moduli(alg, support=ns.support)
    flag = "complete" if moduli.kind == "gauge-orbits" else moduli.kind
    if moduli.support is not None:
        flag += ", support %d" % moduli.support
    # pi_0 of an abelian dgla is the vector space H_-1: when it is nonzero
    # the representatives are a basis of it, not the classes
    dim = moduli.dims.get("H_-1", 0)
    if moduli.kind == "abelian-linear" and dim:
        rep.value("classes", "Q^%d" % dim, flag + ", basis of H_-1")
    else:
        rep.value("classes", moduli.count(), flag)
    for i, r in enumerate(moduli.representatives):
        rep.line("  class %d: %r" % (i, r))
    rep.verdict("completeness-certificate", True)
    return rep.emit(ns.json)


def cmd_verify(ns, argv) -> int:
    what = ns.what
    rep = Report(_echo(argv), {"check": what})
    if what == "theorem-f":
        algs = [_load(ns, ref) for ref in ns.defs]
        report = verify_theorem_f(algs, ns.weight or 4,
                                  vertex_support=ns.support or 2)
        rep.value("moduli(product)", report["moduli_product"], "complete")
        rep.value("moduli(factors)", "+".join(map(str, report["moduli_factors"])),
                  "complete")
        rep.verdict("moduli-bijection", report["bijection"])
        for idx, cell in sorted(report["acyclicity"].items()):
            rep.verdict("acyclicity(g%d u 0)" % idx, cell["pass"])
    elif what == "components":
        alg = _load(ns, ns.defs[0])
        report = verify_component_decomposition(alg, support=ns.support)
        rep.value("moduli", report["moduli_count"], "complete")
        reps = report["representatives"].values()
        vacuous = sum(len(r["vacuous"]) for r in reps)
        checked = sum(len(r["H_iso"]) for r in reps) - vacuous
        rep.value("degrees", "%d checked, %d vacuous" % (checked, vacuous),
                  "H_0..H_%d per class" % (COMPONENT_N_MAX - 1))
        rep.verdict("cover-homology-isomorphisms", report["pass"])
    else:  # free-product-cohomology
        m = ns.weight or 4
        if m < 2:
            raise UsageError("free-product-cohomology needs --weight >= 2")
        if len(ns.defs) != 2:
            raise UsageError("free-product-cohomology needs two definitions")
        g = _load(ns, ns.defs[0])
        h = _load(ns, ns.defs[1])
        if not (g.d_map.is_zero() and h.d_map.is_zero()):
            raise UsageError("free-product-cohomology needs definitions with "
                             "zero differential")
        report = compare_free_product(g, h, m)
        for (w, n), cell in sorted(report["cells"].items()):
            rep.value("w=%d,deg=%d" % (w, n),
                      "%d|%d" % (cell["product"], cell["factors"]),
                      "faithful window" if cell["equal"] else "mismatch")
        rep.verdict("free-product-cohomology", report["pass"])
    return rep.emit(ns.json)


def cmd_localize(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    u = parse_element(ns.at, element_degrees(alg))
    loc, _ = localize(alg, u)
    rep = Report(_echo(argv), {"definition": ns.defs[0], "at": ns.at})
    exact = localization_exactness_report(alg, u, loc)
    dims = {-n: e["H(A[u^-1])"] for n, e in exact.items()
            if n != "pass" and e["H(A[u^-1])"]}
    if not dims:
        rep.line("  localization is the terminal algebra (1 = 0)" if
                 loc.space.total_dim() == 0 else "  cohomology vanishes")
    for n in sorted(dims):
        rep.value("H^%d" % n, dims[n], "exact")
    rep.verdict("exactness H(A[u^-1]) = H(A)[u^-1]", exact["pass"])
    return rep.emit(ns.json)


def cmd_split(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    rep = Report(_echo(argv), {"definition": ns.defs[0]})
    factors = idempotent_split(alg)
    rep.value("factors", len(factors), "exact")
    ok = True
    for i, (u, f, kind) in enumerate(factors):
        dims = f.cohomology_dims()
        rep.line("  factor %d (%s): idempotent %r" % (i, kind, u))
        h0 = dims.get(0, 0)
        neg = any(n < 0 and v for n, v in dims.items())
        rep.value("factor%d H^0" % i, h0, "exact")
        ok = ok and h0 == 1 and not neg
    rep.verdict("connected-factors", ok)
    return rep.emit(ns.json)


def cmd_minimal_model(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    rep = Report(_echo(argv), {"definition": ns.defs[0], "arity": ns.arity})
    model = minimal_model(alg, ns.arity)
    dims = model.homology_dims()
    for n in sorted(dims):
        rep.value("generators in degree %d" % n, dims[n], "exact")
    linear, quasi_iso = model.verdicts.items()
    rep.verdict(*linear)
    rep.value("arity-3 corrections", len(model.l3), "exact")
    rep.verdict(*quasi_iso)
    return rep.emit(ns.json)


# built on first use and shared by every main() call; never mutate it
@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclie",
        description="exact computer algebra for dg Lie algebras and their "
                    "Maurer-Cartan spaces")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, run, kind, needs_weight=False):
        """The options every subcommand takes, and its handler run(ns, argv),
        the kind of definition it loads (Dgla, Cdga, or None for both) and
        whether it requires --weight."""
        p.set_defaults(run=run, kind=kind, needs_weight=needs_weight)
        p.add_argument("defs", nargs="*",
                       help="definition files or builtin names")
        p.add_argument("--builtin", action="append", default=[],
                       help="add a builtin definition (may repeat)")
        p.add_argument("--size", type=int, default=None)
        p.add_argument("--weight", type=_positive_int, default=None)
        p.add_argument("--json", default=None,
                       help="also write a machine-readable report")

    p = sub.add_parser("check", help="run the construction axiom suite")
    common(p, cmd_check, None)
    p = sub.add_parser("homology", help="homology table with flags")
    common(p, cmd_homology, None)
    p.add_argument("--range", type=_parse_range, default=None,
                   help="a..b degree range")
    p = sub.add_parser("ce", help="Chevalley-Eilenberg cohomology table")
    common(p, cmd_ce, Dgla)
    p.add_argument("--words", type=_positive_int, required=True)
    p.add_argument("--range", type=_parse_range, default=None)
    p = sub.add_parser("harrison", help="Harrison complex of an augmented cdga")
    common(p, cmd_harrison, Cdga, needs_weight=True)
    p = sub.add_parser("free-product", help="free product of two dglas")
    common(p, cmd_product, Dgla, needs_weight=True)
    p = sub.add_parser("disjoint-product", help="(g * s)^x * h")
    common(p, cmd_product, Dgla, needs_weight=True)
    p = sub.add_parser("mc-verify", help="exact MC residual of an element")
    common(p, cmd_mc_verify, Dgla)
    p.add_argument("--element", required=True)
    p = sub.add_parser("mc-constraints", help="print the MC constraint system")
    common(p, cmd_mc_constraints, Dgla)
    p.add_argument("--simplex", type=_nonnegative_int, required=True)
    p = sub.add_parser("mc-moduli", help="pi_0 with completeness certificate")
    common(p, cmd_mc_moduli, Dgla)
    p.add_argument("--support", type=_positive_int, default=None)
    p = sub.add_parser("verify", help="theorem checks")
    p.add_argument("what", choices=["theorem-f", "components",
                                    "free-product-cohomology"])
    common(p, cmd_verify, Dgla)
    p.add_argument("--support", type=_positive_int, default=None)
    p = sub.add_parser("localize", help="localization at a cocycle")
    common(p, cmd_localize, Cdga)
    p.add_argument("--at", required=True)
    p = sub.add_parser("split", help="idempotent splitting of H^0")
    common(p, cmd_split, Cdga)
    p = sub.add_parser("minimal-model", help="homotopy-transfer minimal model")
    common(p, cmd_minimal_model, Dgla)
    p.add_argument("--arity", type=int, choices=[2, 3], default=3)
    return parser


# flags whose value may begin with "-": a degree range such as -2..0, or
# an element such as -x
DASH_VALUE_FLAGS = ("--range", "--element", "--at")


def _bind_dash_values(argv: list[str]) -> list[str]:
    """argparse reads a value that begins with "-" as an option; join such
    a value to its flag, as --range=-2..0 or --at=-e, unless it is itself
    an option (-h, --json)."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in DASH_VALUE_FLAGS and arg.startswith("-")
                and not arg.startswith("--") and arg != "-h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        ns = parser.parse_args(_bind_dash_values(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    ns.defs = list(ns.defs) + ["builtin:%s" % b for b in ns.builtin]
    # defs bounds the numerals it reads, but an exact result may be longer
    # than Python's default int -> str bound, and is printed whole
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if not ns.defs:
            raise UsageError("no definitions given")
        if ns.needs_weight and ns.weight is None:
            raise UsageError("%s requires --weight" % ns.cmd)
        return ns.run(ns, argv)
    except McLieError as e:
        print("%s: %s" % (e.prefix or type(e).__name__, e), file=sys.stderr)
        return e.exit_code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
