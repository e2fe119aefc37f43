"""Command-line front end: textual algebra definitions in, reproducible
structured reports out.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage or parse
error, 3 resource cap exceeded.  Every number in a report is printed next
to its exactness or stabilization flag.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linalg import DegreeMismatch, NonSplitAlgebra
from .freelie import InvalidDifferential, InvalidPresentation, TruncationTooLarge
from .dgla import (
    AxiomViolation,
    Dgla,
    NotMaurerCartan,
    disjoint_product,
    free_product_dgla,
    homology_stability,
)
from .cdga import (
    Cdga,
    CdgaAxiomViolation,
    EvenDegreeUnit,
    LocalizationFailure,
    NoAugmentation,
    NonCocycle,
    OddDegreeUnit,
    ZeroCohomology,
    idempotent_split,
    localization_exactness_report,
    localize,
)
from .cehar import (
    CertificateFailure,
    ce_cohomology,
    compare_free_product,
    harrison,
    minimal_model,
)
from .dgla import mc_residual
from .mc import (
    IncompleteSolve,
    SolveBudgetExhausted,
    derive_constraints,
    pi0_moduli,
    verify_component_decomposition,
    verify_theorem_f,
)
from .defs import DefinitionError, element_degrees, load_algebra, parse_element

PASS, FAIL = "PASS", "FAIL"


class UsageError(Exception):
    """The command line asks for something the subcommand cannot do."""


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
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a degree range a..b, got %s"
                                         % text)


# the kind of definition each subcommand takes; check and homology take both
KINDS = {"ce": Dgla, "free-product": Dgla, "disjoint-product": Dgla,
         "mc-verify": Dgla, "mc-constraints": Dgla, "mc-moduli": Dgla,
         "verify": Dgla, "minimal-model": Dgla,
         "harrison": Cdga, "localize": Cdga, "split": Cdga}


def _load(ns, ref: str):
    """Load a definition for the subcommand, checking that it is of the
    kind the subcommand takes."""
    alg = load_algebra(ref, ns.size, ns.weight)
    kind = KINDS.get(ns.cmd)
    if kind is not None and not isinstance(alg, kind):
        raise UsageError("%s is a %s; %s takes a %s" % (
            ref, "dgla" if isinstance(alg, Dgla) else "cdga", ns.cmd,
            kind.__name__.lower()))
    return alg


def cmd_check(ns, argv) -> int:
    rep = Report(_echo(argv), {"definitions": ", ".join(ns.defs)})
    for ref in ns.defs:
        alg = _load(ns, ref)
        try:
            alg.verify_axioms()
            rep.verdict("axioms(%s)" % ref, True)
        except (AxiomViolation, CdgaAxiomViolation) as e:
            rep.line("  violation: %s" % e)
            rep.verdict("axioms(%s)" % ref, False)
    return rep.emit(ns.json)


def cmd_homology(ns, argv) -> int:
    alg = _load(ns, ns.defs[0])
    rep = Report(_echo(argv), {"definition": ns.defs[0]})
    if isinstance(alg, Dgla) and alg.presentation is not None:
        flags = homology_stability(alg)
        degrees = sorted(flags)
        if ns.range:
            lo, hi = ns.range
            degrees = [n for n in degrees if lo <= n <= hi]
        for n in degrees:
            v = flags[n]
            flag = "stable" if v["stable"] else "unstable"
            if v.get("edge"):
                flag += ", edge +%d" % v["edge"]
            rep.value("H_%d" % n, v["dim"], flag)
    else:
        h = alg.homology()
        degrees = h.degrees()
        if ns.range:
            lo, hi = ns.range
            degrees = [n for n in degrees if lo <= n <= hi]
        for n in degrees:
            rep.value("H_%d" % n, h.dim(n), "exact")
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


def cmd_product(ns, argv, kind: str) -> int:
    g = _load(ns, ns.defs[0])
    h = _load(ns, ns.defs[1])
    if kind == "free":
        p = free_product_dgla(g, h, ns.weight)
    else:
        p = disjoint_product(g, h, ns.weight)
    rep = Report(_echo(argv), {"definitions": ", ".join(ns.defs),
                               "weight": ns.weight})
    for n in p.space.degrees():
        rep.value("dim_%d" % n, p.space.dim(n), "weight <= %d" % ns.weight)
    if kind == "disjoint":
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
        rep.verdict("cover-homology-isomorphisms", report["pass"])
    elif what == "free-product-cohomology":
        m = ns.weight or 4
        words = ns.words or m - 1
        if m < 2 or words < m - 1:
            raise DefinitionError("free-product-cohomology needs --weight >= 2 "
                                  "and --words >= weight - 1")
        if len(ns.defs) != 2:
            raise DefinitionError("free-product-cohomology needs two "
                                  "definitions")
        g = _load(ns, ns.defs[0])
        h = _load(ns, ns.defs[1])
        if not (g.d_map.is_zero() and h.d_map.is_zero()):
            raise UsageError("free-product-cohomology needs definitions with "
                             "zero differential")
        report = compare_free_product(g, h, m, words)
        for (w, n), cell in sorted(report["cells"].items()):
            rep.value("w=%d,deg=%d" % (w, n),
                      "%d|%d" % (cell["product"], cell["factors"]),
                      "faithful window" if cell["equal"] else "mismatch")
        rep.verdict("free-product-cohomology", report["pass"])
    else:
        raise DefinitionError("unknown verification %r" % what)
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
    rep.verdict("differential-has-no-linear-part", model.linear_part_is_zero())
    rep.value("arity-3 corrections", len(model.l3), "exact")
    rep.verdict("quasi-isomorphism-on-homology", model.quasi_iso_verified())
    return rep.emit(ns.json)


COMMANDS = {
    "check": cmd_check,
    "homology": cmd_homology,
    "ce": cmd_ce,
    "harrison": cmd_harrison,
    "free-product": lambda ns, argv: cmd_product(ns, argv, "free"),
    "disjoint-product": lambda ns, argv: cmd_product(ns, argv, "disjoint"),
    "mc-verify": cmd_mc_verify,
    "mc-constraints": cmd_mc_constraints,
    "mc-moduli": cmd_mc_moduli,
    "verify": cmd_verify,
    "localize": cmd_localize,
    "split": cmd_split,
    "minimal-model": cmd_minimal_model,
}
NEEDS_WEIGHT = {"harrison", "free-product", "disjoint-product"}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclie",
        description="exact computer algebra for dg Lie algebras and their "
                    "Maurer-Cartan spaces")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, ndefs="*"):
        p.add_argument("defs", nargs=ndefs,
                       help="definition files or builtin names")
        p.add_argument("--builtin", action="append", default=[],
                       help="add a builtin definition (may repeat)")
        p.add_argument("--size", type=int, default=None)
        p.add_argument("--weight", type=_positive_int, default=None)
        p.add_argument("--json", default=None,
                       help="also write a machine-readable report")

    p = sub.add_parser("check", help="run the construction axiom suite")
    common(p)
    p = sub.add_parser("homology", help="homology table with flags")
    common(p)
    p.add_argument("--range", type=_parse_range, default=None,
                   help="a..b degree range")
    p = sub.add_parser("ce", help="Chevalley-Eilenberg cohomology table")
    common(p)
    p.add_argument("--words", type=_positive_int, required=True)
    p.add_argument("--range", type=_parse_range, default=None)
    p = sub.add_parser("harrison", help="Harrison complex of an augmented cdga")
    common(p)
    p = sub.add_parser("free-product", help="free product of two dglas")
    common(p)
    p = sub.add_parser("disjoint-product", help="(g * s)^x * h")
    common(p)
    p = sub.add_parser("mc-verify", help="exact MC residual of an element")
    common(p)
    p.add_argument("--element", required=True)
    p = sub.add_parser("mc-constraints", help="print the MC constraint system")
    common(p)
    p.add_argument("--simplex", type=_nonnegative_int, required=True)
    p = sub.add_parser("mc-moduli", help="pi_0 with completeness certificate")
    common(p)
    p.add_argument("--support", type=_positive_int, default=None)
    p = sub.add_parser("verify", help="theorem checks")
    p.add_argument("what", choices=["theorem-f", "components",
                                    "free-product-cohomology"])
    common(p)
    p.add_argument("--support", type=_positive_int, default=None)
    p.add_argument("--words", type=_positive_int, default=None)
    p = sub.add_parser("localize", help="localization at a cocycle")
    common(p)
    p.add_argument("--at", required=True)
    p = sub.add_parser("split", help="idempotent splitting of H^0")
    common(p)
    p = sub.add_parser("minimal-model", help="homotopy-transfer minimal model")
    common(p)
    p.add_argument("--arity", type=int, choices=[2, 3], default=3)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    ns.defs = list(ns.defs) + ["builtin:%s" % b for b in ns.builtin]
    if not ns.defs:
        print("error: no definitions given", file=sys.stderr)
        return 2
    try:
        if ns.cmd in NEEDS_WEIGHT and ns.weight is None:
            raise UsageError("%s requires --weight" % ns.cmd)
        return COMMANDS[ns.cmd](ns, argv)
    except DefinitionError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (DegreeMismatch, InvalidDifferential, InvalidPresentation) as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    except (TruncationTooLarge, SolveBudgetExhausted) as e:
        print("resource cap: %s" % e, file=sys.stderr)
        return 3
    except (NonSplitAlgebra, OddDegreeUnit, EvenDegreeUnit, NonCocycle,
            ZeroCohomology, NoAugmentation, IncompleteSolve, AxiomViolation,
            NotMaurerCartan, CdgaAxiomViolation, CertificateFailure,
            LocalizationFailure) as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
