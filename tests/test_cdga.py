import itertools
import random

import pytest

from dense_reference import dense_rref, dense_solve
from mclie.linalg import QQ, GradedElement, NonSplitAlgebra
from mclie.dgla import abelian_dgla, sphere_dgla, f_xa_dgla
from mclie.cdga import (
    CdgaAxiomViolation,
    CdgaMorphism,
    DeRhamForms,
    FiniteTableCdga,
    FreePolynomialCdga,
    NonCocycle,
    OddDegreeUnit,
    apply_linear,
    derivations_report,
    idempotent_split,
    localization_exactness_report,
    localize,
    localize_cell,
    omega_degeneracy_map,
    omega_face_map,
    omega_simplex,
    path_object,
    tensor_dgla_forms,
)


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
        reps = h.representatives[0]
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
    et = path.element("e*t^2")
    # p0 kills positive t-powers, p1 evaluates at 1
    assert apply_linear(p0, et).is_zero()
    assert apply_linear(p1, et) == e
    assert apply_linear(p0, path.element("e")) == e
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

    def t_degree(lab):
        deg = 0
        if "*t^" in lab:
            deg = int(lab.split("*t^")[1].split("*")[0])
        if lab.endswith("dt"):
            deg += 1
        return deg

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


def test_localize_odd_degree_rejected():
    b = FiniteTableCdga({0: ["1"], 1: ["w"]}, {("w", "w"): GradedElement()}, "1")
    with pytest.raises(OddDegreeUnit):
        localize(b, b.element("w"))


def test_localize_cell_model():
    # free cdga on one even degree-0 generator u with d = 0; inverting u
    a = FreePolynomialCdga([("u", 0, 1)], 3, {}, {"u": QQ(1)})
    u = a.generator_element("u")
    out = localize_cell(a, u)
    # z is odd with dz = u y - 1
    z = out.generator_element("z")
    dz = out.d(z)
    uy = out.multiply(out.generator_element("u"), out.generator_element("y"))
    assert dz == uy - out.unit


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


@pytest.mark.parametrize("seed", range(12))
def test_localize_matches_per_product_reference(seed):
    rng = random.Random(seed)
    a = random_table_cdga(rng)
    cocycles = [lab for n, lab in a.basis_items()
                if n == 0 and a.d(a.element(lab)).is_zero()]
    u = GradedElement()
    for lab in cocycles:
        u = u + a.element(lab).scale(QQ(rng.randrange(-2, 3)))
    assert_same_localization(a, u)


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


def test_localize_dispatches_cell_model_for_free_input():
    a = FreePolynomialCdga([("u", 0, 1)], 3, {}, {"u": QQ(1)})
    model, loc_map = localize(a, a.generator_element("u"))
    assert loc_map is None
    assert "z" in {name for name, _, _ in model.generators}


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
    monkeypatch.setattr(mclie.cdga.Coordinates, "coords", lambda self, v: None)
    with pytest.raises(NonCocycle, match="not a cycle"):
        cohomology_algebra(qxq())


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
