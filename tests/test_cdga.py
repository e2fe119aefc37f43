import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_reference
from cdga_reference import evaluation_reference, leibniz_reference, multiply_reference
from dense_reference import dense_rref, dense_solve
from mclie.linalg import QQ, GradedElement, NonSplitAlgebra
from mclie.freelie import InvalidDifferential
from mclie.dgla import abelian_dgla, sphere_dgla, f_xa_dgla
from mclie.defs import build_builtin
from mclie.cdga import (
    CdgaAxiomViolation,
    CdgaMorphism,
    DeRhamForms,
    FiniteTableCdga,
    FreePolynomialCdga,
    NonCocycle,
    OddDegreeUnit,
    apply_linear,
    cohomology_algebra,
    derivations_report,
    idempotent_split,
    localization_exactness_report,
    localize,
    omega_degeneracy_map,
    omega_face_map,
    omega_simplex,
    path_object,
    tensor_dgla_forms,
    _eventual_power,
    _multiplication,
)
from test_acceptance import random_table_cdga as acceptance_table_cdga


def qxq():
    """Q x Q with coordinatewise product, augmentation on the second factor."""
    e = GradedElement({(0, "e"): QQ(1)})
    return FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1",
                           augmentation={"1": QQ(1), "e": QQ(0)})


def q_eps():
    """Q[eps]/(eps^2) in degree 0."""
    eps = GradedElement({(0, "eps"): QQ(1)})
    return FiniteTableCdga({0: ["1", "eps"]}, {("eps", "eps"): GradedElement()},
                           "1", augmentation={"1": QQ(1), "eps": QQ(0)})


def qk(k):
    """Product of k copies of Q: unit plus k-1 orthogonal idempotents."""
    labels = ["1"] + ["e%d" % i for i in range(1, k)]
    table = {}
    for i in range(1, k):
        for j in range(1, k):
            table[("e%d" % i, "e%d" % j)] = (
                GradedElement({(0, "e%d" % i): QQ(1)}) if i == j else GradedElement())
    return FiniteTableCdga({0: labels}, table, "1")


# --- omega ------------------------------------------------------------------


def test_omega_point():
    w = omega_simplex(0, 3)
    assert w.space.total_dim() == 1
    assert w.cohomology_dims() == {0: 1}


def test_omega_interval_basis_d3():
    w = omega_simplex(1, 3)
    labs = {lab for _, lab in w.basis_items()}
    assert labs == {"1", "t1", "t1^2", "t1^3", "dt1", "t1*dt1", "t1^2*dt1"}
    assert w.cohomology_dims() == {0: 1}


@pytest.mark.parametrize("n,D", [(0, 2), (1, 3), (2, 2), (2, 3)])
def test_omega_contractible(n, D):
    w = omega_simplex(n, D)
    dims = w.cohomology_dims()
    assert dims == {0: 1}


def test_omega_h0_is_constants():
    # the "constants only" fact: ker d on 0-forms is spanned by 1
    for n in (1, 2):
        w = omega_simplex(n, 3)
        h = w.homology()
        reps = h.representatives(0)
        assert len(reps) == 1
        assert reps[0].coeffs == {(0, "1"): list(reps[0].coeffs.values())[0]}


def test_omega_faces_preserve_dg():
    w = omega_simplex(2, 3)
    for face in (0, 1, 2):
        omega_face_map(w, face)  # dg-compatibility checked in constructor
    w1 = omega_simplex(1, 3)
    for j in (0, 1):
        omega_degeneracy_map(w1, j)


# --- path objects -------------------------------------------------------------


def test_path_object_projections():
    a = qxq()
    path, p0, p1, inc = path_object(a, 3)
    e = a.element("e")
    et = path.element("e|t1^2")
    # p0 kills positive t-powers, p1 evaluates at 1
    assert apply_linear(p0, et).is_zero()
    assert apply_linear(p1, et) == e
    assert apply_linear(p0, path.element("e|1")) == e
    # sections: p_j . i = id
    for lab in ("1", "e"):
        v = apply_linear(inc, a.element(lab))
        assert apply_linear(p0, v) == a.element(lab)
        assert apply_linear(p1, v) == a.element(lab)


def test_path_object_homology_matches():
    a = qxq()
    path, _, _, _ = path_object(a, 3)
    assert path.cohomology_dims() == a.cohomology_dims()

    b = FiniteTableCdga({0: ["1"], 1: ["w"]}, {("w", "w"): GradedElement()}, "1")
    path_b, _, _, _ = path_object(b, 2)
    assert path_b.cohomology_dims() == b.cohomology_dims()


def test_path_object_projection_is_algebra_map():
    # p0 kills the truncation ideal, so it is a strict algebra map; p1 is
    # multiplicative within the truncation window (pairs whose t-degrees do
    # not overflow)
    a = qxq()
    K = 2
    path, p0, p1, inc = path_object(a, K)

    omega = omega_simplex(1, K)

    def t_degree(lab):
        return omega.weights[lab.split("|", 1)[1]]

    items = path.basis_items()
    for (d1, l1), (d2, l2) in itertools.product(items, repeat=2):
        u = path.space.basis_element(d1, l1)
        v = path.space.basis_element(d2, l2)
        lhs = apply_linear(p0, path.multiply(u, v))
        rhs = a.multiply(apply_linear(p0, u), apply_linear(p0, v))
        assert (lhs - rhs).is_zero()
        if t_degree(l1) + t_degree(l2) <= K:
            lhs = apply_linear(p1, path.multiply(u, v))
            rhs = a.multiply(apply_linear(p1, u), apply_linear(p1, v))
            assert (lhs - rhs).is_zero()
    # both projections commute with the differential everywhere
    for (d1, l1) in items:
        u = path.space.basis_element(d1, l1)
        for p in (p0, p1):
            assert (apply_linear(p, path.d(u)) - a.d(apply_linear(p, u))).is_zero()


def _w_table():
    return FiniteTableCdga({0: ["1"], 1: ["w"]}, {("w", "w"): GradedElement()}, "1")


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("ref", ["qxq", "q_eps", "q_deg2", "qk:3", "omega:1:2", "w"])
def test_path_object_matches_hand_rolled_reference(ref, K):
    # A (x) Omega(Delta^1) is the hand-rolled A[t,dt] under the relabeling
    # lab*t^k[*dt] <-> lab|t1^k[*dt1]: structure constants, d, unit, p0, p1
    # and inc
    a = _w_table() if ref == "w" else build_builtin(ref)
    path, p0, p1, inc = path_object(a, K)
    old, q0, q1, qinc = path_reference.path_object(a, K)
    omega = omega_simplex(1, K)
    new_label = {}
    for _, lab in a.basis_items():
        for k in range(K + 1):
            for e in (0, 1):
                if k + e <= K:
                    (_, w), = omega.monomial([("t1", k), ("dt1", e)]).coeffs
                    new_label[path_reference.old_label(lab, k, e)] = "%s|%s" % (lab, w)

    def relabel(elt):
        return GradedElement({(n, new_label[lab]): c for (n, lab), c in elt.coeffs.items()})

    assert sorted((n, new_label[lab]) for n, lab in old.basis_items()) == \
        sorted(path.basis_items())
    items = old.basis_items()
    for (d1, l1), (d2, l2) in itertools.product(items, repeat=2):
        assert relabel(old.mult_labels(d1, l1, d2, l2)) == \
            path.mult_labels(d1, new_label[l1], d2, new_label[l2])
    for n, lab in items:
        assert relabel(old.d(old.space.basis_element(n, lab))) == \
            path.d(path.space.basis_element(n, new_label[lab]))
        assert (q0[lab], q1[lab]) == (p0[new_label[lab]], p1[new_label[lab]])
    assert relabel(old.unit) == path.unit
    assert {lab: relabel(v) for lab, v in qinc.items()} == inc


@pytest.mark.parametrize("K", [0, -1])
def test_path_object_needs_forms_of_degree_one(K):
    # K = 0 would make P -> A x A the diagonal: no path object
    with pytest.raises(ValueError):
        path_object(build_builtin("qxq"), K)


# --- localization --------------------------------------------------------------


def test_localize_at_idempotent_projects():
    a = qxq()
    u = a.element("e")  # (1, 0) in coordinates Q x Q
    loc, loc_map = localize(a, u)
    assert loc.space.total_dim() == 1
    assert loc.cohomology_dims() == {0: 1}


def test_localize_at_unit_is_identity():
    a = qxq()
    ubig = a.element("1")
    loc, loc_map = localize(a, ubig)
    assert loc.space.total_dim() == a.space.total_dim()
    assert loc.cohomology_dims() == a.cohomology_dims()


def test_localize_at_zero_terminal():
    a = qxq()
    loc, _ = localize(a, GradedElement())
    assert loc.space.total_dim() == 0


def test_localize_nilpotent_terminal():
    a = q_eps()
    loc, _ = localize(a, a.element("eps"))
    assert loc.space.total_dim() == 0


def test_localize_requires_cocycle():
    b = FreePolynomialCdga([("s", 0, 1), ("ds", 1, 1)], 2,
                           {"s": GradedElement({(-1, "ds"): QQ(1)})})
    with pytest.raises(NonCocycle):
        localize(b, b.generator_element("s"))


@pytest.mark.parametrize("generators,dgens,message", [
    # d(s) = ds has weight 1 under s of weight 2: the truncation ideal is
    # not d-stable
    ([("s", 0, 2), ("ds", 1, 1)], {"s": GradedElement({(-1, "ds"): QQ(1)})},
     "d\\(s\\) lowers truncation weight"),
    # d(s) = t lies in cohomological degree 0, not 1
    ([("s", 0, 1), ("t", 0, 1)], {"s": GradedElement({(0, "t"): QQ(1)})},
     "d\\(s\\) must be homogeneous of cohomological degree 1"),
], ids=["lowers-weight", "wrong-degree"])
def test_free_cdga_refuses_a_bad_generator_differential(generators, dgens, message):
    with pytest.raises(InvalidDifferential, match="^%s$" % message):
        FreePolynomialCdga(generators, 2, dgens)


def test_localize_odd_degree_rejected():
    b = FiniteTableCdga({0: ["1"], 1: ["w"]}, {("w", "w"): GradedElement()}, "1")
    with pytest.raises(OddDegreeUnit):
        localize(b, b.element("w"))


def _table_copy(a):
    """a as a FiniteTableCdga: the same basis, product table, d and unit."""
    items = a.basis_items()
    table = {(l1, l2): a.mult_labels(d1, l1, d2, l2)
             for (d1, l1), (d2, l2) in itertools.product(items, repeat=2)}
    d = {lab: a.d(a.space.basis_element(n, lab)) for n, lab in items}
    basis = {-n: list(a.space.labels(n)) for n in a.space.degrees()}
    (unit_label,) = [lab for _, lab in a.unit.coeffs]
    return FiniteTableCdga(basis, table, unit_label, d, check="skip")


def _truncated_polynomial():
    """Q[u]/u^4 as a truncated free cdga: u in degree 0 with d = 0."""
    return FreePolynomialCdga([("u", 0, 1)], 3, {}, {"u": QQ(0)})


FREE_LOCALIZE_CASES = [(_truncated_polynomial, "u"),
                       (lambda: omega_simplex(1, 2), "t1"),
                       (lambda: omega_simplex(2, 2), "t1")]
FREE_LOCALIZE_IDS = ["truncated_polynomial", "omega_1_2", "omega_2_2"]


@pytest.mark.parametrize("build, x", FREE_LOCALIZE_CASES, ids=FREE_LOCALIZE_IDS)
def test_free_localization_matches_its_table_copy(build, x):
    # a truncated free cdga is a finite cdga: localize builds on it exactly
    # what it builds on the same table written out.  On omega, 1 + t1 and
    # 2 - 3 t1 are not cocycles, and both copies refuse them alike
    free = build()
    table = _table_copy(free)
    one, gen = free.unit, free.space.basis_element(0, x)
    for u in (GradedElement(), one, one + gen, one.scale(QQ(2)) - gen.scale(QQ(3))):
        outcomes = []
        for alg in (free, table):
            try:
                outcomes.append(_localization_structure(alg, u))
            except NonCocycle as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (x == "t1" and u.coeff(0, x) != 0)


@pytest.mark.parametrize("build, x", FREE_LOCALIZE_CASES, ids=FREE_LOCALIZE_IDS)
def test_free_localization_at_a_unit_is_exact(build, x):
    a = build()
    one, gen = a.unit, a.space.basis_element(0, x)
    units = [one, one.scale(QQ(-2, 3))]
    if x == "u":
        units += [one + gen, one.scale(QQ(2)) - gen.scale(QQ(3))]
    for u in units:
        loc, loc_map = localize(a, u)
        assert loc.space.total_dim() == a.space.total_dim()
        report = localization_exactness_report(a, u, loc)
        assert report["pass"]
        assert report[0] == {"H(A) localized": a.cohomology_dims()[0],
                             "H(A[u^-1])": a.cohomology_dims()[0]}
    assert a.cohomology_dims()[0] == (4 if x == "u" else 1)


def random_table_cdga(rng, max_dim=8):
    """Random finite-table cdga assembled from exact building blocks and a
    random degreewise change of basis (so tables stay associative)."""
    blocks = []
    total = 0
    while total < max_dim - 1 and len(blocks) < 3:
        kind = rng.choice(["field", "dual", "exterior", "cone"])
        blocks.append(kind)
        total += {"field": 1, "dual": 2, "exterior": 2, "cone": 2}[kind]
    # assemble as a tensor product, starting from the ground field
    basis = {0: ["1"]}
    table = {}
    diffs = {}
    counter = itertools.count()

    def add_gen(name, deg, square, d_val):
        basis.setdefault(deg, []).append(name)
        table[(name, name)] = square
        diffs[name] = d_val

    names = []
    for kind in blocks:
        i = next(counter)
        if kind == "field":
            n = "p%d" % i
            add_gen(n, 0, GradedElement({(0, n): QQ(1)}), GradedElement())
        elif kind == "dual":
            n = "q%d" % i
            add_gen(n, 0, GradedElement(), GradedElement())
        elif kind == "exterior":
            n = "r%d" % i
            add_gen(n, -1, GradedElement(), GradedElement())
        else:
            n, m = "s%d" % i, "ds%d" % i
            basis.setdefault(-1, []).append(n)
            basis.setdefault(0, []).append(m)
            table[(n, n)] = GradedElement()
            table[(m, m)] = GradedElement()
            table[(n, m)] = GradedElement()
            diffs[n] = GradedElement({(0, m): QQ(1)})
            diffs[m] = GradedElement()
            names.append(n)
            names.append(m)
            continue
        names.append(n)
    # cross products of distinct generators vanish (a fibered sum of blocks)
    for n1, n2 in itertools.combinations(names, 2):
        table.setdefault((n1, n2), GradedElement())
    return FiniteTableCdga(basis, table, "1", diffs, check="full")


def test_localization_exactness_randomized():
    rng = random.Random(20240809)
    checked = 0
    for _ in range(20):
        a = random_table_cdga(rng)
        cocycles = [lab for n, lab in a.basis_items()
                    if n == 0 and a.d(a.element(lab)).is_zero()]
        coeffs = [QQ(rng.randrange(-2, 3)) for _ in cocycles]
        u = GradedElement()
        for lab, c in zip(cocycles, coeffs):
            u = u + a.element(lab).scale(c)
        rep = localization_exactness_report(a, u)
        assert rep["pass"], rep
        checked += 1
    assert checked == 20


def reference_localize(a, u):
    """The colimit localization computed the slow way: every product is
    pulled back through u^-N by N solves of u x = v on the eventual image,
    each against a freshly built matrix.  Returns (products, unit,
    loc_map), the products keyed by label pair in row-major order."""
    items = a.basis_items()
    n = len(items)
    index = {it: i for i, it in enumerate(items)}

    def vec_of(elt):
        out = [QQ(0)] * n
        for key, c in elt.coeffs.items():
            out[index[key]] = c
        return out

    def elt_of(vec):
        return GradedElement({items[i]: c for i, c in enumerate(vec) if c})

    def mult_u(vec):
        return vec_of(a.multiply(u, elt_of(vec)))

    vecs = [[QQ(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        vecs = [mult_u(v) for v in vecs]
    rows, pivots = dense_rref(vecs, n)
    k = len(rows)
    keys = [(next(items[i][0] for i, c in enumerate(row) if c), "loc%d" % r)
            for r, row in enumerate(rows)]

    def to_coords(vec):
        work = list(vec)
        coords = [QQ(0)] * k
        for r, row in enumerate(rows):
            f = work[pivots[r]]
            coords[r] = f
            work = [x - f * y for x, y in zip(work, row)]
        assert not any(work)
        return GradedElement({keys[r]: c for r, c in enumerate(coords) if c})

    def mult_u_inv(vec):
        cols = [mult_u(r) for r in rows]
        m = [[cols[j][i] for j in range(k)] for i in range(n)]
        x = dense_solve(m, k, vec)
        assert x is not None
        return [sum((x[j] * rows[j][t] for j in range(k)), QQ(0))
                for t in range(n)]

    products = {}
    for i, j in itertools.product(range(k), repeat=2):
        vec = vec_of(a.multiply(elt_of(rows[i]), elt_of(rows[j])))
        for _ in range(n):
            vec = mult_u_inv(vec)
        products[(keys[i][1], keys[j][1])] = to_coords(vec)
    unit = vec_of(a.unit)
    for _ in range(n):
        unit = mult_u(unit)
    return products, to_coords(unit), {lab: to_coords(v)
                                        for (_, lab), v in zip(items, vecs)}


def assert_same_localization(a, u):
    loc, loc_map = localize(a, u)
    products, unit, ref_map = reference_localize(a, u)
    got = {}
    for (d1, l1), (d2, l2) in itertools.product(loc.basis_items(), repeat=2):
        got[(l1, l2)] = loc.mult_labels(d1, l1, d2, l2)

    def listed(table):
        return [(key, list(v.coeffs.items())) for key, v in table.items()]

    assert listed(got) == listed(products)
    assert list(loc.unit.coeffs.items()) == list(unit.coeffs.items())
    assert listed(loc_map) == listed(ref_map)
    assert localization_exactness_report(a, u, loc) == \
        localization_exactness_report(a, u)


def _seeded_table_at_cocycle(seed):
    """A seeded random table and a random combination of its degree-0
    cocycles."""
    rng = random.Random(seed)
    a = random_table_cdga(rng)
    cocycles = [lab for n, lab in a.basis_items()
                if n == 0 and a.d(a.element(lab)).is_zero()]
    u = GradedElement()
    for lab in cocycles:
        u = u + a.element(lab).scale(QQ(rng.randrange(-2, 3)))
    return a, u


@pytest.mark.parametrize("seed", range(12))
def test_localize_matches_per_product_reference(seed):
    assert_same_localization(*_seeded_table_at_cocycle(seed))


def test_exactness_report_matches_k_fold_reference():
    # [u] raised to dim H once, against [u] applied k = dim H_n times per
    # degree
    from cdga_reference import exactness_reference
    for seed in range(60):
        a, u = _seeded_table_at_cocycle(1000 + seed)
        loc, _ = localize(a, u)
        assert repr(localization_exactness_report(a, u, loc)) == \
            repr(exactness_reference(a, u, loc)), seed


def _power_cases():
    cases = [_seeded_table_at_cocycle(seed) for seed in range(12)]
    omega = omega_simplex(3, 3)
    cases.append((omega, omega.unit))
    quv = FreePolynomialCdga([("u", 0, 1), ("v", 0, 1)], 3, {}, {"u": QQ(0), "v": QQ(0)})
    cases.append((quv, quv.unit.scale(QQ(2)) - quv.space.basis_element(0, "u").scale(QQ(3))))
    q = build_builtin("q")
    cases.append((q, q.unit.scale(QQ(3))))  # dim A = 1: L_u itself
    return cases


def test_eventual_power_by_squaring_matches_repeated_composition():
    # L_u^(dim A) by squaring: the columns, dict order included, of L_u
    # composed with itself dim A - 1 times
    for a, u in _power_cases():
        mult_u = _multiplication(a, u)
        ref = mult_u
        for _ in range(a.space.total_dim() - 1):
            ref = mult_u.compose(ref)
        power = _eventual_power(a, u)
        assert (power.source, power.target, power.shift) == (ref.source, ref.target, ref.shift)
        assert list(power.columns.items()) == list(ref.columns.items())


def test_eventual_power_keeps_its_denominator_reduced():
    # u = 1 + v/2 on Q[u, v] truncated at weight 3 (dim 10): u^10 =
    # 1 + 5 v + 45/4 v^2 + 15 v^3, so L_u^10 is stored over 4, where the
    # product of the squarings' denominators would be 2^10
    import math
    from dense_reference import dense_block, dense_product
    a = FreePolynomialCdga([("u", 0, 1), ("v", 0, 1)], 3, {}, {"u": QQ(0), "v": QQ(0)})
    u = a.unit + a.space.basis_element(0, "v").scale(QQ(1, 2))
    mult_u, power = _multiplication(a, u), _eventual_power(a, u)
    assert a.space.total_dim() == 10
    assert {den for _, den in mult_u._blocks.values()} == {2}
    ref = dense_block(mult_u, 0)
    for _ in range(9):
        ref = dense_product(dense_block(mult_u, 0), ref, 10, 10)
    assert dense_block(power, 0) == ref
    for n, (cols, den) in power._blocks.items():
        assert den == math.lcm(*(c.denominator for col in power.columns[n] for _, c in col))
    assert power._blocks[0][1] == 4


@pytest.mark.parametrize("coeffs", [
    {"1": 2, "p": -2, "q": -1, "ds": 3},  # p dies, 2 - q + 3 ds on the rest
    {"1": -1, "p": 2, "q": 2},
])
def test_localize_matches_reference_with_scaled_unit(coeffs):
    # a field block p, a dual number q, an exterior class r and a cone
    # s -> ds; products of distinct blocks vanish
    names = ["p", "q", "r", "s", "ds"]
    table = {pair: GradedElement() for pair in itertools.combinations(names, 2)}
    table.update({(x, x): GradedElement() for x in names})
    table[("p", "p")] = GradedElement({(0, "p"): QQ(1)})
    a = FiniteTableCdga({0: ["1", "p", "q", "ds"], -1: ["r", "s"]}, table, "1",
                        {"s": GradedElement({(0, "ds"): QQ(1)})}, check="full")
    u = GradedElement({(0, lab): QQ(c) for lab, c in coeffs.items()})
    assert_same_localization(a, u)


def _localize_cases():
    """(cdga, u) pairs: seeded tables from the acceptance suite at two
    sizes, each at a random combination of its degree-0 cocycles, and the
    builtins qk:3, qxq and q_eps at idempotents, units, nilpotents and 0."""
    cases = []
    for seed in range(10):
        rng = random.Random(seed)
        a = acceptance_table_cdga(rng, max_dim=12 if seed < 6 else 16)
        u = GradedElement()
        for n, lab in a.basis_items():
            if n == 0 and a.d(a.element(lab)).is_zero():
                u = u + a.element(lab).scale(QQ(rng.randrange(-2, 3)))
        cases.append((a, u))

    def at(coeffs):
        return GradedElement({(0, lab): QQ(c) for lab, c in coeffs.items()})

    qk3, qxq_, qeps = (build_builtin(ref) for ref in ("qk:3", "qxq", "q_eps"))
    cases += [(qk3, at({"1": 2, "e1": -1})), (qk3, at({"e1": 1})),
              (qk3, at({"e1": 1, "e2": 3})), (qk3, at({"1": 1})),
              (qxq_, at({"e": 1})), (qxq_, at({"1": 1, "e": -1})),
              (qxq_, GradedElement()), (qeps, at({"eps": 1})),
              (qeps, at({"1": 1, "eps": 1})), (qeps, at({"1": -3, "eps": 2}))]
    return cases


def _localization_structure(a, u):
    """Everything localize builds, dict order included: the basis per
    degree, every basis product, d on every basis element, the unit and
    the localization map."""
    loc, loc_map = localize(a, u)
    items = loc.basis_items()
    return (
        [(n, loc.space.labels(n)) for n in loc.space.degrees()],
        [(l1, l2, list(loc.mult_labels(d1, l1, d2, l2).coeffs.items()))
         for (d1, l1), (d2, l2) in itertools.product(items, repeat=2)],
        [(lab, list(loc.d(loc.space.basis_element(n, lab)).coeffs.items()))
         for n, lab in items],
        list(loc.unit.coeffs.items()),
        [(lab, list(v.coeffs.items())) for lab, v in loc_map.items()],
    )


# recorded when localize still inverted the k x k matrix of u on the
# eventual image and raised it to the N-th power
LOCALIZE_DIGEST = "0280870cc52baa37b2dc098f9d492294cf51ce10fe7d0df5a2abc21e258a5cbb"


def test_localize_structure_digest():
    structures = [_localization_structure(a, u) for a, u in _localize_cases()]
    assert sum(1 for s in structures if not s[0]) == 2  # the terminal cases
    assert max(len(s[1]) for s in structures) == 81
    assert sum(1 for s in structures if any(d for _, d in s[2])) == 9
    digest = hashlib.sha256(repr(structures).encode()).hexdigest()
    assert digest == LOCALIZE_DIGEST


def test_localize_path_has_no_assert_statements():
    # certificates must survive python -O
    import ast
    import mclie.cdga
    with open(mclie.cdga.__file__) as f:
        tree = ast.parse(f.read())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]


# --- idempotent splitting -------------------------------------------------------


def test_split_product_of_three_fields():
    a = qk(3)
    factors = idempotent_split(a)
    assert len(factors) == 3
    for u, f, kind in factors:
        assert f.cohomology_dims() == {0: 1}
        assert (a.multiply(u, u) - u).is_zero()


def test_split_connected_is_identity():
    b = FiniteTableCdga({0: ["1"], 2: ["w"]}, {("w", "w"): GradedElement()}, "1")
    factors = idempotent_split(b)
    assert len(factors) == 1
    u, f, kind = factors[0]
    assert kind == "strict"
    assert f.cohomology_dims() == b.cohomology_dims()


def test_split_nonsplit_raises():
    with pytest.raises(NonSplitAlgebra):
        idempotent_split(q_eps())


def test_split_strict_for_nonnegative():
    a = qk(2)
    factors = idempotent_split(a)
    assert all(kind == "strict" for _, _, kind in factors)
    total = sum(f.space.total_dim() for _, f, _ in factors)
    assert total == a.space.total_dim()


def _elt(n, **coeffs):
    return GradedElement({(n, lab): QQ(c) for lab, c in coeffs.items()})


def _split_tables():
    """Two finite tables beside qk:3 and qxq.  The first is non-negatively
    graded, with orthogonal idempotents p and q, a cone s -> ds on p and an
    exterior class r on q, so it splits into three strict factors.  The
    second has p*p = p + ds, so H^0 reads a product through a boundary, and
    s in cohomological degree -1 sends its split to localizations."""
    names = ["p", "q", "s", "ds", "r"]
    table = {pair: GradedElement()
             for pair in itertools.combinations_with_replacement(names, 2)}
    table.update({("p", "p"): _elt(0, p=1), ("q", "q"): _elt(0, q=1),
                  ("p", "s"): _elt(0, s=1), ("p", "ds"): _elt(-1, ds=1),
                  ("q", "r"): _elt(-1, r=1)})
    nonneg = FiniteTableCdga({0: ["1", "p", "q", "s"], 1: ["ds", "r"]}, table,
                             "1", {"s": _elt(-1, ds=1)}, check="full")
    names = ["p", "ds", "s"]
    table = {pair: GradedElement()
             for pair in itertools.combinations_with_replacement(names, 2)}
    table.update({("p", "p"): _elt(0, p=1, ds=1), ("p", "s"): _elt(1, s=1),
                  ("p", "ds"): _elt(0, ds=1)})
    z_graded = FiniteTableCdga({0: ["1", "p", "ds"], -1: ["s"]}, table, "1",
                               {"s": _elt(0, ds=1)}, check="full")
    return nonneg, z_graded


def _split_structure(a):
    """cohomology_algebra(a) and every factor of idempotent_split(a), as
    sorted items: H^0's table, unit and representatives; then per factor its
    kind, its idempotent, the basis per degree, every basis product, d on
    every basis element, the unit and the exactness report of A[u^-1]."""
    h0, reps = cohomology_algebra(a)
    labels = list(h0.space.labels(0))

    def dense(elt):
        v = h0.space.to_vector(elt, 0)
        return [v.get(t, QQ(0)) for t in range(len(labels))]

    table = {(i, j): dense(h0.mult_labels(0, l1, 0, l2))
             for i, l1 in enumerate(labels) for j, l2 in enumerate(labels)}
    out = [(labels, sorted(table.items()), dense(h0.unit),
            [sorted(r.coeffs.items()) for r in reps])]
    for u, f, kind in idempotent_split(a):
        items = f.basis_items()
        out.append((
            kind, sorted(u.coeffs.items()),
            [(n, f.space.labels(n)) for n in f.space.degrees()],
            [(l1, l2, sorted(f.mult_labels(d1, l1, d2, l2).coeffs.items()))
             for (d1, l1), (d2, l2) in itertools.product(items, repeat=2)],
            [(lab, sorted(f.d(f.space.basis_element(n, lab)).coeffs.items()))
             for n, lab in items],
            sorted(f.unit.coeffs.items()),
            localization_exactness_report(a, u),
        ))
    return out


# recorded when cohomology_algebra, _strict_factor and the exactness report
# still built a Coordinates of their own for each subspace
SPLIT_DIGEST = "38459e5cc7d269873466ebb566fbed3f07a334e6bf58ac0edc74af623f32882c"


def test_split_structure_digest():
    algebras = [build_builtin("qk:3"), build_builtin("qxq"), *_split_tables()]
    structures = [_split_structure(a) for a in algebras]
    assert [[f[0] for f in s[1:]] for s in structures] == [
        ["strict"] * 3, ["strict"] * 2, ["strict"] * 3, ["localization"] * 2]
    assert structures[3][0][1][3] == ((1, 1), [QQ(0), QQ(1)])  # p*p = p + ds
    digest = hashlib.sha256(repr(structures).encode()).hexdigest()
    assert digest == SPLIT_DIGEST


# --- tensor dgla forms ----------------------------------------------------------


def test_tensor_with_point_is_same_dims():
    g = sphere_dgla()
    t = tensor_dgla_forms(g, 0, 2)
    assert t.space.total_dim() == g.space.total_dim()


def test_tensor_sphere_interval_differential():
    # d(x (x) t) = -1/2 [x,x] (x) t - x (x) dt
    g = sphere_dgla()
    t = tensor_dgla_forms(g, 1, 3)
    xt = t.element("x|t1")
    d = t.d(xt)
    expected = GradedElement({(-2, "[x,x]|t1"): QQ(-1, 2),
                              (-2, "x|dt1"): QQ(-1)})
    assert d == expected


def test_tensor_f_degree_slice():
    # degree -1 part of f (x) Omega: e_i (x) 0-forms plus a (x) 1-forms
    g = f_xa_dgla(3)
    t = tensor_dgla_forms(g, 1, 2)
    labs = t.space.labels(-1)
    e_part = [l for l in labs if not l.startswith("a|")]
    a_part = [l for l in labs if l.startswith("a|")]
    assert all("dt" not in l for l in e_part)
    assert all("dt" in l for l in a_part)


# --- derivations ------------------------------------------------------------------


def test_derivations_free_one_generator_degree2():
    a = FreePolynomialCdga([("w", 2, 1)], 3, {}, {"w": QQ(0)})
    rep = derivations_report(a, a.rebuild(4))
    assert rep["dims"] == {2: 1}
    assert all(rep["stable"].values())


def test_derivations_ground_field():
    a = FiniteTableCdga({0: ["1"]}, {}, "1", augmentation={"1": QQ(1)})
    rep = derivations_report(a)
    assert rep["dims"] == {}


def test_derivations_ce_of_abelian_line():
    # C(g) for the abelian line in degree 0 is the exterior algebra on one
    # degree-1 generator; I/I^2 has one class in degree 1
    a = FreePolynomialCdga([("s", 1, 1)], 3, {}, {"s": QQ(0)})
    rep = derivations_report(a)
    assert rep["dims"] == {1: 1}


def test_derivations_of_ce_algebra_of_abelian_line():
    # A = C(g) for the abelian line in degree 0: I/I^2 is one class in
    # cohomological degree 1
    from mclie.cehar import ce_complex
    from mclie.dgla import abelian_dgla
    ce = ce_complex(abelian_dgla({0: ["a"]}), 3)
    rep = derivations_report(ce.algebra)
    assert rep["dims"] == {1: 1}


def _derivation_cases():
    """(id, cdga, its rebuild one step up) for the derivations oracle."""
    from mclie.cehar import ce_complex
    cases = []
    for ref, g in [("heisenberg", build_builtin("heisenberg")),
                   ("abelian:2:0", build_builtin("abelian:2:0")),
                   ("two-degree abelian", abelian_dgla({0: ["a"], -1: ["b"]})),
                   ("f_xa:3", f_xa_dgla(3))]:
        for bound in (2, 3):
            cases.append(("ce %s words %d" % (ref, bound), ce_complex(g, bound).algebra,
                          ce_complex(g, bound + 1).algebra))
    for c in (QQ(1), QQ(3, 2)):
        def free(weight, c=c):
            w2 = GradedElement({(-4, "w^2"): c})
            return FreePolynomialCdga([("w", 2, 1), ("x", 3, 2)], weight, {"x": w2},
                                      {"w": QQ(0), "x": QQ(0)})
        cases.append(("free d x = %s w^2" % c, free(4), free(5)))
    cases.append(("forms on the 1-simplex", omega_simplex(1, 3), omega_simplex(1, 4)))
    cases.append(("square-zero table", q_eps(), q_eps()))
    cases.append(("Q x Q", qxq(), qxq()))
    return cases


DERIVATION_CASES = _derivation_cases()


@pytest.mark.parametrize("a, rebuilt", [c[1:] for c in DERIVATION_CASES],
                         ids=[c[0] for c in DERIVATION_CASES])
def test_derivations_report_matches_quotient_complex_reference(a, rebuilt):
    from cdga_reference import derivations_reference
    # repr: the same keys in the same order
    assert repr(derivations_report(a)) == repr(derivations_reference(a))
    assert repr(derivations_report(a, rebuilt)) == repr(derivations_reference(a, rebuilt))


def test_derivations_report_refuses_an_escape():
    # eps(1) = 2 and d y = 1: dbar y = 1 - 2 * 1 = -1 lies outside I + I^2,
    # which is 0 in degree 0
    from cdga_reference import derivations_reference
    a = FiniteTableCdga({0: ["1"], -1: ["y"]}, {}, "1",
                        {"y": GradedElement({(0, "1"): QQ(1)})},
                        augmentation={"1": QQ(2)}, check="skip")
    for report in (derivations_report, derivations_reference):
        with pytest.raises(CdgaAxiomViolation,
                           match="^element escapes the quotient I/I\\^2 in degree 0$"):
            report(a)


def test_derivations_report_refuses_a_nonzero_dbar_squared():
    # d x = w, d 1 = z and eps(w) = 1, with w w = 2 w - 1 so that (w - 1)^2
    # = 0 and I^2 = 0: dbar x = w - 1 and dbar(w - 1) = -z, so dbar dbar is
    # nonzero from degree 1, and degree 0 is named
    from cdga_reference import derivations_reference
    from mclie.linalg import CertificateFailure
    w, z = GradedElement({(0, "w"): QQ(1)}), GradedElement({(-1, "z"): QQ(1)})
    x = GradedElement({(1, "x"): QQ(1)})
    a = FiniteTableCdga({0: ["1", "w"], 1: ["z"], -1: ["x"]},
                        {("w", "w"): w.scale(2) - GradedElement({(0, "1"): QQ(1)}),
                         ("w", "z"): z, ("w", "x"): x}, "1", {"x": w, "1": z},
                        augmentation={"1": QQ(1), "w": QQ(1)}, check="skip")
    for report in (derivations_report, derivations_reference):
        with pytest.raises(CertificateFailure,
                           match="^boundaries are not all cycles in degree 0$"):
            report(a)


def test_derivations_report_refuses_a_dbar_that_leaves_i_squared():
    # d v = w, d 1 = z and eps(w) = 1 with w w = w and w z = z: I^2 is
    # spanned by (w - 1)^2 = 1 - w, and dbar(1 - w) = z lies outside I^2 =
    # 0 in degree -1, so dbar is no map on I/I^2; the quotient complex of
    # the old report read a homology off it regardless
    from cdga_reference import derivations_reference
    w, z = GradedElement({(0, "w"): QQ(1)}), GradedElement({(-1, "z"): QQ(1)})
    a = FiniteTableCdga({0: ["1", "w"], 1: ["z"], -1: ["v"]},
                        {("w", "w"): w, ("w", "z"): z}, "1", {"v": w, "1": z},
                        augmentation={"1": QQ(1), "w": QQ(1)}, check="skip")
    assert derivations_reference(a)["dims"]
    with pytest.raises(CdgaAxiomViolation, match="^d\\(I\\^2\\) leaves I\\^2 in degree -1$"):
        derivations_report(a)


def test_split_z_graded_uses_localization_factors():
    # a Z-graded disconnected algebra: the idempotent factors come from the
    # localization colimit rather than a strict product decomposition
    z = GradedElement({(1, "z"): QQ(1)})
    a = FiniteTableCdga(
        {0: ["1", "e"], -1: ["z"]},
        {("e", "e"): GradedElement({(0, "e"): QQ(1)}),
         ("e", "z"): z, ("z", "z"): GradedElement()},
        "1")
    factors = idempotent_split(a)
    assert len(factors) == 2
    kinds = sorted(kind for _, _, kind in factors)
    assert "localization" in kinds
    dims_total = {}
    for _, f, _ in factors:
        for n, v in f.cohomology_dims().items():
            dims_total[n] = dims_total.get(n, 0) + v
        assert f.cohomology_dims().get(0) == 1
    assert dims_total == a.cohomology_dims()


def test_cohomology_algebra_raises_named_errors(monkeypatch):
    from mclie.cdga import ZeroCohomology, cohomology_algebra
    from mclie.defs import parse_definition
    a = parse_definition("kind cdga\nbasis 1 0\nbasis y -1\nunit 1\n"
                         "d y = 1 1\n").build()
    with pytest.raises(ZeroCohomology, match="degree 0"):
        cohomology_algebra(a)
    import mclie.cdga
    monkeypatch.setattr(mclie.linalg.Coordinates, "coords", lambda self, v: None)
    with pytest.raises(NonCocycle, match="not a cycle"):
        cohomology_algebra(qxq())


def test_strict_factor_raises_named_error(monkeypatch, capsys):
    # u*A is built like A[u^-1], so a vector leaving it is the image
    # algebra's LocalizationFailure, which cli.main maps to exit 1, not a
    # bare ValueError
    from mclie.cdga import LocalizationFailure, _strict_factor
    from mclie.cli import main
    a = build_builtin("qk:3")
    u = idempotent_split(a)[0][0]
    import mclie.cdga
    monkeypatch.setattr(mclie.linalg.Coordinates, "coords", lambda self, v: None)
    with pytest.raises(LocalizationFailure, match="not invertible on the image"):
        _strict_factor(a, u)
    monkeypatch.undo()
    # through the CLI, with only the image algebra's solves failing
    monkeypatch.setattr(mclie.cdga.GradedLinearMap, "solve", lambda self, v: None)
    assert main(["split", "qk:3"]) == 1
    err = capsys.readouterr().err
    assert err == "LocalizationFailure: u is not invertible on the image of u^N\n"


# --- construction-time axiom checks ------------------------------------------


def _gen(n, lab, c=1):
    return GradedElement({(n, lab): QQ(c)})


def _raises_exactly(message, build):
    with pytest.raises(CdgaAxiomViolation) as info:
        build()
    assert type(info.value) is CdgaAxiomViolation
    assert str(info.value) == message


def _associativity_breaker(n):
    """Degree-0 table with a*a = b, a*b = a: (a*a)*b = 0 but a*(a*b) = b;
    the other n - 3 basis elements multiply to zero."""
    labels = ["1", "a", "b"] + ["z%d" % i for i in range(n - 3)]
    return {0: labels}, {("a", "a"): _gen(0, "b"), ("a", "b"): _gen(0, "a")}


# cohomological degrees in the basis, homological in the elements
@pytest.mark.parametrize("message,build", [
    ("d squared is nonzero",
     lambda: FiniteTableCdga({0: ["1"], 1: ["a"], 2: ["b"], 3: ["c"]}, {}, "1",
                             {"a": _gen(-2, "b"), "b": _gen(-3, "c")}, check="skip")),
    ("unit fails on e",
     lambda: FiniteTableCdga({0: ["1", "e"]}, {("1", "e"): GradedElement()}, "1")),
    ("unit is not a cocycle",
     lambda: FiniteTableCdga({0: ["1"], 1: ["a"]}, {}, "1", {"1": _gen(-1, "a")})),
    ("graded commutativity fails on (a, b)",
     lambda: FiniteTableCdga({0: ["1"], 1: ["a", "b"], 2: ["c"]},
                             {("a", "b"): _gen(-2, "c"), ("b", "a"): _gen(-2, "c")},
                             "1")),
    ("Leibniz fails on (x, x)",
     lambda: FiniteTableCdga({0: ["1", "x"], 1: ["y"]}, {("x", "x"): _gen(0, "x")},
                             "1", {"x": _gen(-1, "y")})),
    ("associativity fails on (a, a, b)",
     lambda: FiniteTableCdga(*_associativity_breaker(3), "1")),
    ("augmentation nonzero off degree 0",
     lambda: FiniteTableCdga({0: ["1"], 1: ["a"]}, {}, "1",
                             augmentation={"1": QQ(1), "a": QQ(1)})),
    ("augmentation is not a dg map",
     lambda: FiniteTableCdga({-1: ["z"], 0: ["1", "x"]}, {}, "1", {"z": _gen(0, "x")},
                             augmentation={"1": QQ(1), "x": QQ(1)})),
    ("augmentation of the unit is not 1",
     lambda: FiniteTableCdga({0: ["1"]}, {}, "1", augmentation={"1": QQ(2)})),
    ("augmentation is not multiplicative on (e, e)",
     lambda: FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): _gen(0, "e")}, "1",
                             augmentation={"1": QQ(1), "e": QQ(5)})),
    # u -> 1 on Q[u]/(u^4): eps(u u^3) = eps(0) = 0, not 1
    ("augmentation is not multiplicative on (u, u^3)",
     lambda: FreePolynomialCdga([("u", 0, 1)], 3, {}, {"u": QQ(1)})),
])
def test_cdga_axiom_failures_name_the_check(message, build):
    _raises_exactly(message, build)


def test_cdga_auto_check_runs_up_to_26_basis_elements():
    basis, table = _associativity_breaker(26)
    _raises_exactly("associativity fails on (a, a, b)",
                    lambda: FiniteTableCdga(basis, table, "1", check="auto"))
    basis, table = _associativity_breaker(27)
    a = FiniteTableCdga(basis, table, "1", check="auto")
    _raises_exactly("associativity fails on (a, a, b)",
                    lambda: a.verify_axioms(triple_cap=27))


def test_cdga_verify_axioms_caps_skip_only_pair_and_triple_loops():
    a = FiniteTableCdga(*_associativity_breaker(5), "1", check="skip")
    a.verify_axioms(triple_cap=4)
    _raises_exactly("associativity fails on (a, a, b)",
                    lambda: a.verify_axioms(triple_cap=5))
    b = FiniteTableCdga({0: ["1"], 1: ["a", "b"], 2: ["c"]},
                        {("a", "b"): _gen(-2, "c"), ("b", "a"): _gen(-2, "c")},
                        "1", check="skip")
    b.verify_axioms(pair_cap=3, triple_cap=0)
    _raises_exactly("graded commutativity fails on (a, b)",
                    lambda: b.verify_axioms(pair_cap=4, triple_cap=0))
    # the unit and augmentation checks have no cap
    c = FiniteTableCdga({0: ["1", "e"]}, {("1", "e"): GradedElement()}, "1",
                        check="skip")
    _raises_exactly("unit fails on e", lambda: c.verify_axioms(pair_cap=0, triple_cap=0))
    d = FiniteTableCdga({0: ["1"]}, {}, "1", augmentation={"1": QQ(2)}, check="skip")
    _raises_exactly("augmentation of the unit is not 1",
                    lambda: d.verify_axioms(pair_cap=0, triple_cap=0))


def _random_element(rng, a, terms):
    items = a.basis_items()
    out = {}
    for _ in range(terms):
        out[rng.choice(items)] = QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
    return GradedElement(out)


def reference_product(labels_fn, u, v):
    """The product the slow way: one copied dict per term."""
    out = GradedElement()
    for (d1, l1), c1 in u.coeffs.items():
        for (d2, l2), c2 in v.coeffs.items():
            out = out + labels_fn(d1, l1, d2, l2).scale(c1 * c2)
    return out


def test_multiply_matches_copy_per_term_reference():
    rng = random.Random(11)
    for _ in range(10):
        a = random_table_cdga(rng)
        for _ in range(10):
            u = _random_element(rng, a, rng.randrange(2, 8))
            v = _random_element(rng, a, rng.randrange(2, 8))
            got = a.multiply(u, v)
            assert list(got.coeffs.items()) == \
                list(reference_product(a.mult_labels, u, v).coeffs.items())
            assert all(type(c) is QQ for c in got.coeffs.values())


# --- the Leibniz kernel against the GradedElement oracle ----------------------

LEIBNIZ_COEFFS = [QQ(2, 3), QQ(-5, 7), QQ(1, 11), QQ(1), QQ(-3)]


def cohdeg_of(alg, lab):
    return sum(alg.generators[i][1] * e for i, e in alg._mono_of_label[lab])


def named_monomial(alg, lab):
    """A basis monomial as (name, exponent) pairs, which keep their meaning
    when the generator order changes."""
    return [(alg.generators[i][0], e) for i, e in alg._mono_of_label[lab]]


@st.composite
def free_cdgas(draw):
    """A truncated free cdga with d*d = 0 by construction: cocycles c_k;
    generators y_k whose d is a combination of monomials in the c_k; at
    most one z whose d is the boundary of a combination of monomials with
    a letter y_k, so d(z) has letters with a nonzero d; and one generator
    h heavier than the truncation; all in a drawn order.  The degree and
    weight of y_k and z are read off a drawn monomial that their d may
    reach, so most draws have a nonzero d."""
    m = draw(st.integers(1, 5))
    cocycles = [("c%d" % k, draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
                for k in range(draw(st.integers(1, 3)))]
    heavy = ("h", draw(st.integers(-2, 2)), m + 1)

    def combination(alg, letters, shift):
        """(cohdeg, weight, terms) for a generator of the drawn degree and
        weight: terms pairs a drawn basis label with a letter among
        letters, of cohomological degree cohdeg + shift, with up to two
        more of its degree and of weight at least weight, each with a
        drawn coefficient."""
        targets = [lab for lab, mono in alg._mono_of_label.items()
                   if -2 <= cohdeg_of(alg, lab) - shift <= 2
                   and any(alg.generators[i][0] in letters for i, _ in mono)]
        if not targets:
            return None
        first = draw(st.sampled_from(targets))
        cohdeg = cohdeg_of(alg, first)
        weight = draw(st.integers(1, min(3, alg.weights[first])))
        more = [lab for lab in alg.space.labels(-cohdeg)
                if lab != first and alg.weights[lab] >= weight]
        picked = [first] + (draw(st.lists(st.sampled_from(more), unique=True, max_size=2))
                            if more else [])
        return cohdeg - shift, weight, [(named_monomial(alg, lab),
                                        draw(st.sampled_from(LEIBNIZ_COEFFS)))
                                       for lab in picked]

    def element(alg, terms):
        out = GradedElement()
        for pairs, c in terms:
            out = out + alg.monomial(pairs).scale(c)
        return out

    base = FreePolynomialCdga(cocycles, m, {}, check="skip")
    ys, d_y = [], {}
    for k in range(draw(st.integers(0, 2))):
        drawn = combination(base, {name for name, _, _ in cocycles}, 1)
        if drawn is not None:
            ys.append(("y%d" % k, drawn[0], drawn[1]))
            d_y["y%d" % k] = drawn[2]
    order = draw(st.permutations(cocycles + ys + [heavy, ("z", 0, 0)]))
    # z has no letter in mid, so mid writes the labels of the final algebra
    gens = [g for g in order if g[0] != "z"]
    dgens = {"h": GradedElement({(-(heavy[1] + 1), "beyond"): QQ(1)})}
    mid = FreePolynomialCdga(gens, m, {}, check="skip")
    dgens.update({y: element(mid, terms) for y, terms in d_y.items()})
    mid = FreePolynomialCdga(gens, m, dgens, check="skip")
    drawn = combination(mid, set(d_y), 0) if draw(st.booleans()) else None
    if drawn is not None:
        dgens["z"] = leibniz_reference_of(mid, element(mid, drawn[2]))
        gens = [("z", drawn[0], drawn[1]) if g[0] == "z" else g for g in order]
    return FreePolynomialCdga(gens, m, dgens, check="skip")


def leibniz_reference_of(alg, elt):
    out = GradedElement()
    for (_, lab), c in elt.coeffs.items():
        out = out + leibniz_reference(alg, lab).scale(c)
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(free_cdgas())
def test_leibniz_kernel_matches_graded_element_reference(alg):
    for n, lab in alg.basis_items():
        assert alg.d(alg.space.basis_element(n, lab)) == leibniz_reference(alg, lab), lab
    if alg.space.total_dim() <= 60:
        for (n1, l1), (n2, l2) in itertools.product(alg.basis_items(), repeat=2):
            u, v = alg.space.basis_element(n1, l1), alg.space.basis_element(n2, l2)
            assert alg.mult_labels(n1, l1, n2, l2) == multiply_reference(alg, u, v)


def _free_cdga_cases():
    from mclie.cehar import ce_complex
    half = FreePolynomialCdga(
        [("x", 1), ("y", 2), ("z", 2, 2), ("w", 3, 2)], 6,
        {"z": GradedElement({(-3, "x*y"): QQ(1, 2)}),
         "w": GradedElement({(-4, "y^2"): QQ(-5, 7)})})
    return [omega_simplex(2, 3), ce_complex(build_builtin("heisenberg"), 3).algebra,
            ce_complex(f_xa_dgla(4), 3).algebra, half]


@pytest.mark.parametrize("case", range(4))
def test_free_cdga_d_columns_match_the_reference(case):
    # the d that FreePolynomialCdga hands over as int blocks over _den,
    # column by column against the GradedElement Leibniz rule, each block
    # over its least denominator
    import math
    from mclie.linalg import GradedLinearMap
    alg = _free_cdga_cases()[case]
    want = GradedLinearMap.from_function(alg.space, alg.space, -1,
                                         lambda n, lab: leibniz_reference(alg, lab))
    assert alg.d_map.columns == want.columns and not alg.d_map.is_zero()
    assert alg.d_map._blocks == want._blocks
    for n, (cols, den) in alg.d_map._blocks.items():
        assert all(type(x) is int for col in cols for _, x in col)
        assert den == math.lcm(*(c.denominator for col in want.columns[n] for _, c in col))
    dens = {den for _, den in alg.d_map._blocks.values()}
    # de Rham forms and the CE complex of heisenberg have integer d; f_xa's
    # 1/2 and the 1/2 and 5/7 above give den 2 and 14, which blocks that
    # meet only one of the two reduce to 7 or 2
    assert dens == [{1}, {1}, {2}, {2, 7, 14}][case]
    assert alg._den == max(dens)


@st.composite
def monomial_walks(draw):
    """1-5 generators (name, cohdeg 0-3, weight 1-3), a quarter of the lists
    with one of them replaced by an even generator of weight 0; a
    truncation weight 1-8; and a basis cap 1-200."""
    k = draw(st.integers(1, 5))
    gens = [("x%d" % i, draw(st.integers(0, 3)), draw(st.integers(1, 3))) for i in range(k)]
    if draw(st.integers(0, 3)) == 0:
        gens[draw(st.integers(0, k - 1))] = ("e", draw(st.sampled_from([0, 2])), 0)
    return gens, draw(st.integers(1, 8)), draw(st.integers(1, 200))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(monomial_walks())
def test_monomial_walk_matches_count_then_build_reference(case):
    # one walk that counts each list before building it, against the count
    # walk and the build walk it replaced: the same basis, or the same
    # exception with the same message
    import mclie.freelie
    from cdga_reference import MonomialsReference
    from mclie.freelie import TruncationTooLarge
    gens, max_weight, cap = case

    def outcome(walk):
        try:
            return walk()
        except (TruncationTooLarge, ValueError) as e:
            return type(e), str(e)

    def walk():
        return sorted((w, FreePolynomialCdga._format(gens, m), m)
                      for w, monos in FreePolynomialCdga._monomials(gens, max_weight).items()
                      for m in monos)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mclie.freelie, "BASIS_SIZE_CAP", cap)
        want = outcome(MonomialsReference(gens, max_weight)._enumerate_monomials)
        assert outcome(walk) == want


def test_leibniz_reference_draws_the_cases_that_matter():
    # what the derandomized test relies on: an odd letter with a nonzero d
    # behind an odd letter (the Koszul sign), an even letter of exponent
    # above 1 with a nonzero d (the multiplicity), terms of d(x) (mono / x)
    # over the truncation and with an odd square, a generator differential
    # with a letter whose own d is nonzero, and fractional coefficients
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(free_cdgas())
    def record(alg):
        gens, terms = alg.generators, alg._dgen_terms
        for lab, mono in alg._mono_of_label.items():
            parity = 0
            for i, e in mono:
                odd = gens[i][1] % 2
                if terms.get(i) and odd and parity:
                    seen.add("odd letter after an odd prefix")
                if terms.get(i) and not odd and e > 1:
                    seen.add("even letter of exponent > 1")
                for t, _ in terms.get(i, ()):
                    t_lab = alg._label_of_mono[t]
                    if alg.weights[t_lab] + alg.weights[lab] - gens[i][2] > alg.max_weight:
                        seen.add("term over the truncation")
                    rest = dict(mono)
                    rest[i] -= 1
                    if any(gens[j][1] % 2 and rest.get(j) for j, _ in t):
                        seen.add("odd square")
                parity ^= odd
        for i, ts in terms.items():
            if any(terms.get(j) for t, _ in ts for j, _ in t):
                seen.add("d with a letter of nonzero d")
        if any(c.denominator > 1 for v in alg._dgens.values() for c in v.coeffs.values()):
            seen.add("fractional coefficient")

    record()
    assert seen == {"odd letter after an odd prefix", "even letter of exponent > 1",
                    "term over the truncation", "odd square",
                    "d with a letter of nonzero d", "fractional coefficient"}


@pytest.mark.parametrize("seed", range(60))
def test_evaluation_matches_product_reference(seed):
    # the same values, in the same key order, and the same refusal of a
    # nonzero value on a nonzero-degree generator, reached before a zero
    rng = random.Random(seed)
    gens = [("g%d" % i, rng.choice([0, 0, 1, 2]), rng.randint(1, 2))
            for i in range(rng.randint(1, 4))]
    alg = FreePolynomialCdga(gens, rng.randint(1, 4), check="skip")
    values = {name: rng.choice([QQ(0), QQ(0), QQ(1), QQ(-2, 3), QQ(5)])
              for name, _, _ in gens if rng.random() < 0.8}

    def outcome(fn):
        try:
            return list(fn(values).items())
        except CdgaAxiomViolation as e:
            return str(e)

    got = outcome(alg._evaluation)
    assert got == outcome(lambda v: evaluation_reference(alg, v))
    assert isinstance(got, str) or all(type(c) is Fraction for _, c in got)
