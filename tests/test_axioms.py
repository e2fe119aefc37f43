"""The construction-time axiom checker, which contracts one table of
structure constants, against the GradedElement checker it replaced
(axiom_reference), on random finite-table cdgas and dglas in mixed
degrees: valid ones, and ones with one structure constant or one entry of
d broken."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import axiom_reference
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
