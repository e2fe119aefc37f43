"""The construction-time axiom checker, which contracts one table of
structure constants, against the GradedElement checker it replaced
(axiom_reference), on random finite-table cdgas and dglas in mixed
degrees: valid ones, and ones with one structure constant or one entry of
d broken.  Tables whose constants have large coprime denominators, and
`mclie check` on broken table files."""

import contextlib
import io
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axiom_reference
from mclie.cli import main
from mclie.cdga import CdgaAxiomViolation, FiniteTableCdga, FreePolynomialCdga
from mclie.dgla import AxiomViolation, Dgla, dgla_from_table
from mclie.linalg import QQ, Coordinates, GradedElement, GradedVectorSpace

MAX_BASIS = 8

# small graded Lie algebras with zero differential: (homological basis,
# brackets {(l1, l2): {label: c}})
LIE_ALGEBRAS = [
    ({0: ["x"]}, {}),
    ({0: ["x", "y"]}, {("x", "y"): {"y": 1}}),
    ({-1: ["x"], -2: ["w"]}, {("x", "x"): {"w": 1}}),
    ({0: ["x", "y", "z"]}, {("x", "y"): {"z": 1}}),
    ({0: ["h"], -1: ["x"]}, {("h", "x"): {"x": 1}}),
]


def _free_cdga(rng, max_dim):
    """A truncated free cdga on one to three generators of cohomological
    degree 0-3, with d taking at most one generator to another (closed)
    one, and at most max_dim basis elements."""
    while True:
        gens = [("x%d" % i, rng.randint(0, 3), rng.randint(1, 2))
                for i in range(rng.randint(1, 3))]
        max_weight = rng.randint(1, 3)
        pairs = [(a, b) for a in gens for b in gens
                 if b[1] == a[1] + 1 and a[2] <= b[2] <= max_weight]
        dgens = {}
        if pairs and rng.random() < 0.7:
            (name, _, _), (target, cohdeg, _) = rng.choice(pairs)
            dgens[name] = GradedElement({(-cohdeg, target): QQ(rng.choice([1, -2, 3]))})
        a = FreePolynomialCdga(gens, max_weight, dgens, check="skip")
        if a.total_dim() <= max_dim:
            return a


def _tensor(lie: Dgla, a: FreePolynomialCdga) -> Dgla:
    """lie (x) a, with [x(a), y(b)] = (-1)^{|a||y|} [x,y](x)ab and
    d(x(a)) = (-1)^{|x|} x(x)da (lie has zero differential)."""
    basis: dict[int, list[str]] = {}
    info = {}
    for nl, x in lie.basis_items():
        for na, la in a.basis_items():
            lab = "%s|%s" % (x, la)
            basis.setdefault(nl + na, []).append(lab)
            info[lab] = (nl, x, na, la)

    def pack(le, ae, sign):
        return GradedElement({(nl + na, "%s|%s" % (x, la)): sign * cl * ca
                              for (nl, x), cl in le.coeffs.items()
                              for (na, la), ca in ae.coeffs.items()})

    def bracket_fn(d1, l1, d2, l2):
        nx, x, na, la = info[l1]
        ny, y, nb, lb = info[l2]
        return pack(lie.bracket_labels(nx, x, ny, y), a.mult_labels(na, la, nb, lb),
                    -1 if (na * ny) % 2 else 1)

    def d_fn(n, lab):
        nx, x, na, la = info[lab]
        return pack(lie.element(x), a.d(a.element(la)), -1 if nx % 2 else 1)

    return Dgla(GradedVectorSpace(basis), d_fn, bracket_fn, check="skip")


def _rebased(rng, alg):
    """alg's structure constants in a random basis f_i = c_i e_i + sum_{j<i}
    p_ij e_j per degree, under the same labels, as (table of every ordered
    pair, differentials); the unit label "1" stays e_1."""
    space = alg.space
    f = {}
    coords = {}
    for n in space.degrees():
        labs = space.labels(n)
        for i, lab in enumerate(labs):
            terms = {(n, lab): QQ(1) if lab == "1" else QQ(rng.choice([1, 1, 2, -3]),
                                                            rng.choice([1, 1, 2]))}
            for j in range(i):
                if rng.random() < 0.4:
                    terms[(n, labs[j])] = QQ(rng.randint(-2, 2))
            f[lab] = GradedElement(terms)
        coords[n] = Coordinates([space.to_vector(f[lab], n) for lab in labs], space.dim(n))

    def in_f(elt):
        out = {}
        for n in sorted(elt.degrees()):
            x = coords[n].coords(space.to_vector(elt.homogeneous_part(n), n))
            out.update(space.from_vector(x, n).coeffs)
        return GradedElement(out)

    items = alg.basis_items()
    table = {(l1, l2): in_f(alg._product(f[l1], f[l2])) for _, l1 in items for _, l2 in items}
    diffs = {lab: in_f(alg.d(f[lab])) for _, lab in items}
    return table, diffs


def _break(rng, cls, space, table, diffs, what):
    """Add one random term to a structure constant (and, half the time, the
    matching term to its mirror, so the graded symmetry still holds) or to
    one differential."""
    degree_of = {lab: n for n in space.degrees() for lab in space.labels(n)}

    def term(n):
        return GradedElement({(n, rng.choice(space.labels(n))): QQ(rng.choice([-1, 1, 2]))})

    if what == "product":
        pairs = [p for p in table if space.dim(degree_of[p[0]] + degree_of[p[1]])]
        # products with the unit label only break the unit law: seldom
        if rng.random() < 0.85 and any("1" not in p for p in pairs):
            pairs = [p for p in pairs if "1" not in p]
        if not pairs:
            return
        l1, l2 = rng.choice(pairs)
        d1, d2 = degree_of[l1], degree_of[l2]
        extra = term(d1 + d2)
        table[(l1, l2)] = table[(l1, l2)] + extra
        if l1 != l2 and rng.random() < 0.5:
            table[(l2, l1)] = table[(l2, l1)] + extra.scale(cls._mirror_sign(d1, d2))
    else:
        labs = [lab for lab, n in degree_of.items() if space.dim(n - 1)]
        if labs:
            lab = rng.choice(labs)
            diffs[lab] = diffs[lab] + term(degree_of[lab] - 1)


def _outcome(check):
    try:
        return "skipped", check()
    except (CdgaAxiomViolation, AxiomViolation) as e:
        return type(e).__name__, str(e)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["cdga", "dgla"]),
       st.sampled_from([None, "product", "product", "differential"]),
       st.integers(0, 2 * MAX_BASIS), st.integers(0, 2 * MAX_BASIS))
def test_table_checker_matches_reference(seed, kind, broken, pair_cap, triple_cap):
    rng = random.Random(seed)
    if kind == "cdga":
        source = _free_cdga(rng, MAX_BASIS)
    else:
        basis, brackets = rng.choice(LIE_ALGEBRAS)
        lie = dgla_from_table(basis, {
            pair: GradedElement({(n, lab): QQ(c) for lab, c in val.items()
                                 for n in basis if lab in basis[n]})
            for pair, val in brackets.items()})
        source = _tensor(lie, _free_cdga(rng, MAX_BASIS // lie.total_dim()))
    space = source.space
    table, diffs = _rebased(rng, source)
    if broken:
        _break(rng, type(source), space, table, diffs, broken)
    try:
        if kind == "cdga":
            alg = FiniteTableCdga({-n: labs for n, labs in space.basis.items()},
                                  table, "1", diffs, check="skip")
        else:
            alg = dgla_from_table(space.basis, table, diffs, check="skip")
    except (CdgaAxiomViolation, AxiomViolation) as e:
        # a broken differential may square to nonzero, which every
        # construction refuses before any other law
        assert broken == "differential" and str(e) == "d squared is nonzero"
        return
    assert _outcome(lambda: alg.verify_axioms(pair_cap, triple_cap)) == \
        _outcome(lambda: axiom_reference.verify_axioms(alg, pair_cap, triple_cap))
    if not broken:
        assert alg.verify_axioms(MAX_BASIS, MAX_BASIS) == []


# --- structure constants with large coprime denominators

P61, BIG = 2 ** 61 - 1, 10 ** 30 + 57
LARGE = [QQ(P61, BIG), QQ(-BIG, P61), QQ(1, P61), QQ(BIG), QQ(2, 3 * BIG), QQ(-P61)]


def _rescaled(alg):
    """alg's structure constants in the basis f_i = c_i e_i, c_i cycling
    through LARGE (the unit label "1" keeps c = 1), as (table of every
    ordered pair, differentials)."""
    items = alg.basis_items()
    c = {lab: QQ(1) if lab == "1" else LARGE[i % len(LARGE)] for i, (_, lab) in enumerate(items)}

    def in_f(elt, scale):
        return GradedElement({(n, lab): x * scale / c[lab] for (n, lab), x in elt.coeffs.items()})

    table = {(l1, l2): in_f(alg._product_labels(d1, l1, d2, l2), c[l1] * c[l2])
             for d1, l1 in items for d2, l2 in items}
    diffs = {lab: in_f(alg.d(alg.space.basis_element(n, lab)), c[lab]) for n, lab in items}
    return table, diffs


def _large_sources():
    """A truncated free cdga with d(y) = z, and heisenberg (x) a free cdga
    with d, both with nonzero products in several degrees."""
    a = FreePolynomialCdga([("x", 0, 1), ("y", 1, 1), ("z", 2, 1)], 3,
                           {"y": GradedElement({(-2, "z"): QQ(1)})}, check="skip")
    basis, brackets = LIE_ALGEBRAS[3]
    lie = dgla_from_table(basis, {pair: GradedElement({(0, lab): QQ(c) for lab, c in val.items()})
                                  for pair, val in brackets.items()})
    b = FreePolynomialCdga([("t", 0, 1), ("dt", 1, 1)], 1,
                           {"t": GradedElement({(-1, "dt"): QQ(1)})}, check="skip")
    return [("cdga", a), ("dgla", _tensor(lie, b))]


@pytest.mark.parametrize("kind", ["cdga", "dgla"])
def test_tables_with_large_coprime_denominators_pass(kind):
    source = dict(_large_sources())[kind]
    space = source.space
    table, diffs = _rescaled(source)
    dens = math.lcm(*(c.denominator for e in list(table.values()) + list(diffs.values())
                      for c in e.coeffs.values()))
    assert dens % P61 == 0 and dens % BIG == 0

    def build(table, check):
        if kind == "cdga":
            return FiniteTableCdga({-n: labs for n, labs in space.basis.items()},
                                   table, "1", diffs, check=check)
        return dgla_from_table(space.basis, table, diffs, check=check)

    alg = build(table, "full")
    assert alg.total_dim() <= type(alg)._TRIPLE_CAP
    assert alg.verify_axioms() == []
    assert axiom_reference.verify_axioms(alg, 10 ** 6, 10 ** 6) == []
    # one constant moved by 1/(P61 BIG) breaks a law, found as the
    # reference finds it
    pair = next(p for p, e in table.items() if e.coeffs and "1" not in p)
    (n, lab), _ = next(iter(table[pair].coeffs.items()))
    table = dict(table)
    table[pair] = table[pair] + GradedElement({(n, lab): QQ(1, P61 * BIG)})
    broken = build(table, "skip")
    got = _outcome(lambda: broken.verify_axioms())
    assert got[0] != "skipped"
    assert got == _outcome(lambda: axiom_reference.verify_axioms(broken, 10 ** 6, 10 ** 6))


# --- mclie check on random finite-table files that break one law


def _text(elt, name):
    return " + ".join("%s %s" % (c, name[lab]) for (_, lab), c in elt.coeffs.items()) or "0"


def _definition(kind, space, table, diffs, name):
    """A definition file for the table, every ordered pair written out
    (zero products as 0, so no mirror is filled in), labels renamed."""
    lines = ["kind %s" % kind]
    for n in space.degrees():
        lines += ["basis %s %d" % (name[lab], -n if kind == "cdga" else n)
                  for lab in space.labels(n)]
    if kind == "cdga":
        lines.append("unit %s" % name["1"])
    word = "mul" if kind == "cdga" else "bracket"
    lines += ["%s %s %s = %s" % (word, name[l1], name[l2], _text(e, name))
              for (l1, l2), e in table.items()]
    lines += ["d %s = %s" % (name[lab], _text(e, name)) for lab, e in diffs.items() if e.coeffs]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["cdga", "dgla"]),
       st.sampled_from(["product", "product", "differential"]))
def test_check_on_a_broken_table_file_names_the_reference_failure(seed, kind, broken):
    rng = random.Random(seed)
    if kind == "cdga":
        source = _free_cdga(rng, MAX_BASIS)
    else:
        basis, brackets = rng.choice(LIE_ALGEBRAS)
        lie = dgla_from_table(basis, {
            pair: GradedElement({(n, lab): QQ(c) for lab, c in val.items()
                                 for n in basis if lab in basis[n]})
            for pair, val in brackets.items()})
        source = _tensor(lie, _free_cdga(rng, MAX_BASIS // lie.total_dim()))
    space = source.space
    table, diffs = _rebased(rng, source)
    _break(rng, type(source), space, table, diffs, broken)
    name = {lab: "one" if lab == "1" else "b%d" % i
            for i, (_, lab) in enumerate(source.basis_items())}
    renamed = GradedVectorSpace({n: [name[lab] for lab in labs] for n, labs in space.basis.items()})

    def rename(e):
        return GradedElement({(n, name[lab]): c for (n, lab), c in e.coeffs.items()})

    table_r = {(name[l1], name[l2]): rename(e) for (l1, l2), e in table.items()}
    diffs_r = {name[lab]: rename(e) for lab, e in diffs.items()}
    try:
        if kind == "cdga":
            alg = FiniteTableCdga({-n: labs for n, labs in renamed.basis.items()},
                                  table_r, "one", diffs_r, check="skip")
        else:
            alg = dgla_from_table(renamed.basis, table_r, diffs_r, check="skip")
        want = _outcome(lambda: axiom_reference.verify_axioms(alg, 10 ** 6, 10 ** 6))
    except (CdgaAxiomViolation, AxiomViolation) as e:
        want = type(e).__name__, str(e)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "broken.def")
        with open(path, "w") as f:
            f.write(_definition(kind, space, table, diffs, name))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check", path])
    if want[0] == "skipped":
        assert (rc, err.getvalue()) == (0, "")
    else:
        assert rc == 1
        assert err.getvalue() == "%s: %s\n" % want
