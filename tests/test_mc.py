import hashlib
import itertools

import pytest

from mc_reference import (
    expand_system_over_forms,
    faces_preserve_mc,
    oracle_system_over_forms,
)
from mclie.linalg import QQ, GradedElement
from mclie.dgla import (
    abelian_dgla,
    connected_cover,
    dgla_from_table,
    disjoint_product,
    f_xa_dgla,
    g_s_dgla,
    heisenberg_dgla,
    is_mc,
    sphere_dgla,
    twist,
    zero_dgla,
)
from mclie.cdga import tensor_dgla_forms
from mclie.defs import build_builtin
from mclie.mc import (
    IncompleteSolve,
    derive_constraints,
    induced_homology_iso,
    mc_simplices,
    mc_vertices,
    pi0_moduli,
    pretty_poly,
    solve_structured,
    verify_component_decomposition,
    verify_theorem_f,
)


# --- constraint systems -------------------------------------------------------


def test_constraints_g_s_discrete_space_system():
    # (1a) d alpha_s = 0; (1b) alpha_s(1 - alpha_s) = 0; (1c) alpha_s alpha_s' = 0
    g = g_s_dgla(2, 2)
    system = derive_constraints(g, 1)
    eqs = dict(system.equations)
    # components on the generators x_s: - x_s d(alpha_s)
    for s in ("x1", "x2"):
        poly = eqs.pop(s)
        assert poly == {(("a[%s]" % s, True),): QQ(-1)}
    # components on [x_s, x_s]: 1/2 (alpha_s^2 - alpha_s)
    for s in ("x1", "x2"):
        poly = eqs.pop("[%s,%s]" % (s, s))
        sym = ("a[%s]" % s, False)
        assert poly == {(sym,): QQ(-1, 2), (sym, sym): QQ(1, 2)}
    # cross component: alpha_1 alpha_2
    poly = eqs.pop("[x1,x2]")
    assert poly == {(("a[x1]", False), ("a[x2]", False)): QQ(1)}
    assert not eqs


def test_constraints_abelian_is_linear():
    g = abelian_dgla({-1: ["u"], -2: ["w"]}, {"u": GradedElement({(-2, "w"): QQ(1)})})
    system = derive_constraints(g, 1)
    for poly in system.equations.values():
        assert all(len(m) == 1 for m in poly)


def test_constraints_f_recursion():
    # the e_{i+1}-component in f_{-1} (x) Omega^1 reads
    # -d(alpha_{i+1}) - omega alpha_i  (i.e. d alpha_{i+1} = -omega alpha_i)
    g = f_xa_dgla(4)
    system = derive_constraints(g, 1)
    e = ["x", "[a,x]", "[a,[a,x]]", "[a,[a,[a,x]]]"]
    aomega = ("a[a]", False)
    for i in range(0, 3):
        poly = system.equations[e[i + 1]]
        dterm = (("a[%s]" % e[i + 1], True),)
        assert poly.get(dterm) == QQ(-1)
        cross = tuple(sorted([aomega, ("a[%s]" % e[i], False)]))
        assert cross in poly
    # the x-component contains only d(alpha_0)
    assert system.equations[e[0]] == {(("a[x]", True),): QQ(-1)}


def test_constraints_oracle_identical_system():
    # the symbolic system expanded over the form monomials equals the
    # honest residual expansion computed in the tensor dgla
    for g, n, D in [(g_s_dgla(2, 2), 1, 2), (sphere_dgla(), 1, 2),
                    (f_xa_dgla(3), 1, 2)]:
        system = derive_constraints(g, n)
        tensor = tensor_dgla_forms(g, n, D, check="skip")
        lhs = expand_system_over_forms(system, tensor)
        rhs = oracle_system_over_forms(g, n, D)
        assert lhs == rhs


# --- solver ------------------------------------------------------------------


def test_solve_g_s_vertices():
    for size in (1, 2, 3):
        g = g_s_dgla(size, 2)
        system, result, vertices = mc_vertices(g)
        assert result.complete
        assert len(vertices) == size + 1
        expected = [GradedElement()] + \
            [g.element("x%d" % (s + 1)) for s in range(size)]
        for v in expected:
            assert v in vertices


def test_solve_sphere_vertices():
    s = sphere_dgla()
    system, result, vertices = mc_vertices(s)
    assert result.complete
    assert sorted(map(repr, vertices)) == ["0", "x"]


def test_solve_f_truncation_vertices_exactly_zero_and_x():
    # weight-supported solving with the doubled equation window reproduces
    # the uncompleted answer {0, x} at every truncation
    for m in (3, 4, 5):
        g = f_xa_dgla(m)
        system, result, vertices = mc_vertices(g, support=m)
        assert result.complete
        assert sorted(map(repr, vertices)) == ["0", "x"], (m, vertices)


def test_solver_round_trip_residuals():
    g = f_xa_dgla(4)
    system, result, vertices = mc_vertices(g, support=4)
    for v in vertices:
        ok, res = is_mc(g, v)
        assert ok and res.is_zero()


def test_solve_incomplete_is_flagged():
    # a two-higher-form product has no safe branching rule
    g = abelian_dgla({0: ["p", "q"]})
    # build a fake system: the product of two 1-form unknowns
    from mclie.mc import MCConstraintSystem, SymbolTable
    table = SymbolTable()
    table.add("a[p]", 1, "p")
    table.add("a[q]", 1, "q")
    eq = {tuple(sorted([("a[p]", False), ("a[q]", False)])): QQ(1)}
    system = MCConstraintSystem(g, 1, table, {"a[p]": "p", "a[q]": "q"},
                                {"w": eq})
    result = solve_structured(system)
    assert not result.complete


# --- simplicial MC sets ---------------------------------------------------------


def test_mc_simplices_g_s_constant_through_level_2():
    g = g_s_dgla(3, 2)
    counts = {}
    for n in (0, 1, 2):
        data = mc_simplices(g, n, 2)
        assert data["complete"]
        assert len(data["samples"]) == 4
        counts[n] = len(data["samples"])
    assert counts == {0: 4, 1: 4, 2: 4}
    assert faces_preserve_mc(g, 1, 2)


def test_mc_simplices_abelian_kernel():
    g = abelian_dgla({-1: ["u", "v"], -2: ["w"]},
                     {"u": GradedElement({(-2, "w"): QQ(1)})})
    data = mc_simplices(g, 1, 2)
    assert data["complete"]
    tensor = data["tensor"]
    # solutions = cycles in (g (x) Omega)_{-1}; sample set nonempty and MC
    assert data["samples"]
    for elt in data["samples"]:
        ok, _ = is_mc(tensor, elt)
        assert ok


def test_mc_simplices_f_level_one():
    # within the truncation: x (x) 1 together with closed 1-forms on a
    g = f_xa_dgla(4)
    data = mc_simplices(g, 1, 2, support=4)
    assert data["complete"]
    tensor = data["tensor"]
    x_label = "x|1"
    xs = [e for e in data["samples"] if list(e.coeffs) == [(-1, x_label)]]
    assert len(xs) == 1
    # the closed 1-form family around 0
    others = [e for e in data["samples"] if e.is_zero() or
              all(lab.startswith("a|") for (_, lab) in e.coeffs)]
    assert others


# the mc_simplices samples, each in dict order, recorded when family_samples
# still took a dense kernel of the family's linear constraints
SAMPLES_DIGEST = "6d44717e66c4a6949120e9d619f3cc52038aeb5034a7a57db1c3a3e72aa31388"


def test_mc_simplices_samples_digest():
    chain = {"u": GradedElement({(-2, "w"): QQ(1)})}
    runs = [mc_simplices(g_s_dgla(3, 2), n, 2) for n in (1, 2)]
    runs.append(mc_simplices(abelian_dgla({-1: ["u", "v"], -2: ["w"]}, chain), 1, 2))
    runs.append(mc_simplices(f_xa_dgla(4), 1, 2, support=4))
    samples = [[list(e.coeffs.items()) for e in r["samples"]] for r in runs]
    assert [len(s) for s in samples] == [4, 4, 2, 4]
    digest = hashlib.sha256(repr(samples).encode()).hexdigest()
    assert digest == SAMPLES_DIGEST


def test_zero_dgla_mc():
    g = zero_dgla()
    system, result, vertices = mc_vertices(g)
    assert vertices == [GradedElement()]


# --- pi0 ------------------------------------------------------------------------


def test_pi0_abelian_equals_homology():
    g = abelian_dgla({0: ["a"], -1: ["u", "v"], -2: ["w"]},
                     {"a": GradedElement({(-1, "u"): QQ(1)}),
                      "v": GradedElement({(-2, "w"): QQ(1)})})
    moduli = pi0_moduli(g)
    h = g.homology()
    assert moduli.kind == "abelian-linear"
    assert moduli.dims["H_-1"] == h.dim(-1)


def test_pi0_g_s():
    g = g_s_dgla(2, 2)
    moduli = pi0_moduli(g)
    assert moduli.count() == 3
    assert moduli.kind == "gauge-orbits"


def test_pi0_sphere_two_classes():
    s = sphere_dgla()
    moduli = pi0_moduli(s)
    assert moduli.count() == 2


def test_pi0_f_truncation_two_classes():
    g = f_xa_dgla(4)
    moduli = pi0_moduli(g, support=4)
    assert moduli.count() == 2


def test_pi0_gauge_orbits_merge():
    # adjoin gauge directions: in f, exp(t a) connects x with its orbit;
    # the vertex set {0, x} already separates, but verify witnesses stay
    # consistent: disjoint product of the line with zero has exactly the
    # classes [0] and [-x]
    ab = abelian_dgla({0: ["a"]})
    d = disjoint_product(ab, zero_dgla(), 4)
    moduli = pi0_moduli(d, support=2)
    assert moduli.count() == 2


# --- theorem checks ---------------------------------------------------------------


def test_theorem_f_zeros():
    for k in (1, 2, 3):
        report = verify_theorem_f([zero_dgla()] * k, 4)
        assert report["bijection"], report
        assert report["moduli_product"] == k
        assert report["pass"], report


def test_theorem_f_line_and_zero():
    report = verify_theorem_f([abelian_dgla({0: ["a"]}), zero_dgla()], 4)
    assert report["moduli_product"] == 2
    assert report["pass"], report


def test_theorem_f_heisenberg_and_line():
    report = verify_theorem_f([heisenberg_dgla(), abelian_dgla({0: ["z"]})], 4)
    assert report["moduli_product"] == 2
    assert report["pass"], report


def test_component_decomposition_abelian():
    g = abelian_dgla({0: ["a"], -1: ["u", "v"], -2: ["w"]},
                     {"a": GradedElement({(-1, "u"): QQ(1)}),
                      "v": GradedElement({(-2, "w"): QQ(1)})})
    report = verify_component_decomposition(g)
    assert report["pass"], report
    # d a = u and d v = w leave H_-1 = 0: pi_0 is the single class of 0
    assert report["moduli_count"] == 1


def test_component_decomposition_sphere():
    report = verify_component_decomposition(sphere_dgla())
    assert report["pass"], report
    assert report["moduli_count"] == 2


def test_component_decomposition_trivial_twist():
    g = heisenberg_dgla()
    report = verify_component_decomposition(g)
    assert report["pass"], report


def _cover_structure(g):
    """connected_cover(g) as sorted items: the basis per degree, every basis
    bracket, d on every basis element, the weights, the inclusion images
    and whether the inclusion is an iso on H_0 .. H_3."""
    cover, incl = connected_cover(g)
    items = cover.basis_items()
    return (
        [(n, cover.space.labels(n)) for n in cover.space.degrees()],
        [(l1, l2, sorted(cover.bracket_labels(d1, l1, d2, l2).coeffs.items()))
         for (d1, l1), (d2, l2) in itertools.product(items, repeat=2)],
        [(lab, sorted(cover.d(cover.space.basis_element(n, lab)).coeffs.items()))
         for n, lab in items],
        sorted((cover.weights or {}).items()),
        [(lab, sorted(incl.apply(cover.space.basis_element(n, lab)).coeffs.items()))
         for n, lab in items],
        [induced_homology_iso(incl, cover, g, k) for k in range(4)],
    )


def _twisted_cover_structures(g):
    """The cover of each twisted g^xi that verify_component_decomposition
    builds, then the H_iso verdicts of its report."""
    out = [(repr(xi), _cover_structure(twist(g, xi, check="skip")))
           for xi in pi0_moduli(g).representatives]
    report = verify_component_decomposition(g)
    out.append([(idx, r["xi"], sorted(r["H_iso"].items()))
                for idx, r in sorted(report["representatives"].items())])
    return out


def _positive_degree_dgla():
    """y in degree 1 with d(y) = b - c, a, b, c in degree 0 with d(a) = x,
    [a, b] = b, [a, c] = c and [a, y] = y: ker d_0 = <b, c>, so the cover
    reads b - c in coordinates of its own."""
    def elt(n, **coeffs):
        return GradedElement({(n, lab): QQ(c) for lab, c in coeffs.items()})
    return dgla_from_table(
        {1: ["y"], 0: ["a", "b", "c"], -1: ["x"]},
        {("a", "b"): elt(0, b=1), ("a", "c"): elt(0, c=1), ("a", "y"): elt(1, y=1)},
        {"y": elt(0, b=1, c=-1), "a": elt(-1, x=1)})


# recorded when connected_cover still expressed degree-0 elements through a
# Coordinates of its own and passed the positive degrees through
COVER_DIGEST = "e243f4a5ade5ddae28d0b8535fdda3578950568f9925a891398000271d7ec628"


def test_connected_cover_structure_digest():
    structures = [_twisted_cover_structures(build_builtin(ref))
                  for ref in ("heisenberg", "sphere", "f_xa:3", "g_S:2")]
    assert [len(s) - 1 for s in structures] == [1, 2, 2, 3]
    structures.append(_cover_structure(_positive_degree_dgla()))
    assert structures[-1][0] == [(0, ("ker0_0", "ker0_1")), (1, ("y",))]
    assert all(all(cover[-1]) for s in structures[:-1] for _, cover in s[:-1])
    digest = hashlib.sha256(repr(structures).encode()).hexdigest()
    assert digest == COVER_DIGEST


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_solver_roundtrip_random_abelian(seed):
    # every solution family instantiates to an exact MC element
    import random as _random
    rng = _random.Random(seed)
    basis = {}
    diffs = {}
    labels = []
    for deg in (-2, -1, 0):
        k = rng.randrange(0, 3)
        basis[deg] = ["b%d_%d" % (deg, i) for i in range(k)]
        labels.extend((deg, lab) for lab in basis[deg])
    basis = {d: ls for d, ls in basis.items() if ls}
    if not basis:
        basis = {-1: ["b"]}
    for deg in (0, -1):
        for lab in basis.get(deg, []):
            img = GradedElement()
            for lab2 in basis.get(deg - 1, []):
                img = img + GradedElement({(deg - 1, lab2):
                                           QQ(rng.randrange(-2, 3))})
            if not img.is_zero():
                diffs[lab] = img
    from mclie.dgla import AxiomViolation
    try:
        g = abelian_dgla(basis, diffs)
    except (ValueError, AxiomViolation):
        return  # random d failed d*d = 0; not a test subject
    data = mc_simplices(g, 1, 2)
    assert data["complete"]
    tensor = data["tensor"]
    for elt in data["samples"]:
        ok, res = is_mc(tensor, elt)
        assert ok and res.is_zero()


def test_gauge_connection_finds_rational_parameter():
    # direct exercise of the polynomial connection solver: points on the
    # exponential orbit of x are merged back with the exact parameter
    from mclie.mc import _gauge_connection, partition_by_gauge
    from mclie.dgla import gauge_act
    g = f_xa_dgla(5)
    a = g.element("a")
    x = g.element("x")
    eta = gauge_act(g, a, x)
    half = gauge_act(g, a.scale(QQ(1, 2)), x)
    t = _gauge_connection(g, a, x, eta)
    assert t == QQ(1)
    t2 = _gauge_connection(g, a, x, half)
    assert t2 == QQ(1, 2)
    assert _gauge_connection(g, a, x, GradedElement()) is None
    # partition merges the orbit points and keeps 0 separate
    reps, orbits, witnesses = partition_by_gauge(g, [GradedElement(), x, eta, half])
    assert len(reps) == 2
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 3]
    assert witnesses


def test_linear_differential_constraints_are_families():
    # d(alpha_1) = -1/2 d(alpha_0)-type equations become closedness
    # constraints on the family, solved by sampling the joint kernel
    g = abelian_dgla({-1: ["u", "v"], -2: ["w"]},
                     {"u": GradedElement({(-2, "w"): QQ(1)}),
                      "v": GradedElement({(-2, "w"): QQ(2)})})
    data = mc_simplices(g, 1, 2)
    assert data["complete"]
    tensor = data["tensor"]
    for elt in data["samples"]:
        ok, _ = is_mc(tensor, elt)
        assert ok
    # some sample mixes u and v against the constraint d(au) = -2 d(av)
    assert any(len({lab.split("|")[0] for (_, lab) in e.coeffs}) > 1
               for e in data["samples"])


def test_default_support_window_stays_desk_sized():
    # defaulted windows shrink on wide products instead of materializing an
    # infeasible free cover; explicit supports are honored
    from mclie.dgla import disjoint_product, heisenberg_dgla
    d = disjoint_product(heisenberg_dgla(), abelian_dgla({0: ["z"]}), 4,
                         check="skip")
    moduli = pi0_moduli(d)
    assert moduli.count() == 2
    assert moduli.support is not None and moduli.support < 4


# --- substitution and the solver against the rebuild-everything reference ------

from fractions import Fraction

import mclie.mc as mc_module
from hypothesis import example
from mclie.mc import (
    MAX_SOLVE_STEPS,
    MCConstraintSystem,
    SolveBudgetExhausted,
    SymbolTable,
    _sort_factors,
    poly_add,
    poly_substitute,
)


def _reference_poly_substitute(p, sym, value, table):
    """poly_substitute rebuilding every monomial through poly_mul."""
    dvalue = None
    out = {}
    for mono, c in p.items():
        pieces = [mc_module.poly_const(c)]
        for factor in mono:
            fsym, fdiff = factor
            if fsym == sym:
                if fdiff:
                    if dvalue is None:
                        dvalue = mc_module.poly_d(value, table)
                    pieces.append(dvalue)
                else:
                    pieces.append(value)
            else:
                pieces.append({(factor,): QQ(1)})
        term = pieces[0]
        for piece in pieces[1:]:
            term = mc_module.poly_mul(term, piece, table)
        out = mc_module.poly_add(out, term)
    return out


def _reference_substitute_state(equations, sym, value, table, occurs):
    """Substitution into every equation, ignoring the occurrence index."""
    return {lab: _reference_poly_substitute(p, sym, value, table)
            for lab, p in equations.items()}


_SYMS = ("s0", "s1", "s2", "s3")


def _poly_table(degrees, constants=()):
    table = SymbolTable()
    for sym, deg in zip(_SYMS, degrees):
        table.add(sym, deg, sym)
    table.constant.update(constants)
    return table


@st.composite
def _substitution_cases(draw):
    degrees = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    constants = [s for s, deg in zip(_SYMS, degrees)
                 if deg == 0 and draw(st.booleans())]
    table = _poly_table(degrees, constants)

    def poly(max_terms):
        out = {}
        for _ in range(draw(st.integers(0, max_terms))):
            factors = draw(st.lists(st.tuples(st.sampled_from(_SYMS),
                                              st.booleans()), max_size=3))
            mono, sign = _sort_factors(factors, table)
            if mono is not None:
                c = QQ(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
                out = poly_add(out, {mono: sign * c})
        return out

    return table, poly(6), draw(st.sampled_from(_SYMS)), poly(3)


def _assert_same_poly(got, want):
    assert list(got.items()) == list(want.items())
    assert all(type(c) is Fraction for c in got.values())


_X0, _X1, _X2 = ("s0", False), ("s1", False), ("s2", False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_substitution_cases())
# a substituted term cancels a monomial that passed through, and a later
# one re-creates it at the end of the dict
@example((_poly_table([0, 0, 0, 0]),
          {(_X0,): QQ(1), (_X1,): QQ(-1), (_X0, _X0): QQ(1)},
          "s0", {(_X1,): QQ(1), (): QQ(1)}))
# an odd factor repeated by the substitution, and a d(sym) factor
@example((_poly_table([0, 1, 0, 0]),
          {(_X0, _X1): QQ(2), (("s0", True), _X2): QQ(1, 2)},
          "s0", {(_X1,): QQ(1), (_X2,): QQ(3)}))
def test_poly_substitute_matches_reference(case):
    table, p, sym, value = case
    got = poly_substitute(p, sym, value, table)
    _assert_same_poly(got, _reference_poly_substitute(p, sym, value, table))
    if not any(f[0] == sym for m in p for f in m):
        assert got is p


def _solver_systems():
    """Every system the tests of this file and of test_acceptance.py hand
    to solve_structured, recorded by running the same calls, plus g_S at
    sizes 12, 16 and 20 and two hand-built systems."""
    systems = []
    real = mc_module.solve_structured

    def record(system, *args, **kwargs):
        systems.append(system)
        return real(system, *args, **kwargs)

    ab_line = abelian_dgla({0: ["a"]})
    chain = {"u": GradedElement({(-2, "w"): QQ(1)})}
    two_to_w = {"u": GradedElement({(-2, "w"): QQ(1)}),
                "v": GradedElement({(-2, "w"): QQ(2)})}
    pi0_chain = abelian_dgla({0: ["a"], -1: ["u", "v"], -2: ["w"]},
                             {"a": GradedElement({(-1, "u"): QQ(1)}),
                              "v": GradedElement({(-2, "w"): QQ(1)})})
    calls = [lambda k=k: mc_vertices(g_s_dgla(k, 2)) for k in (1, 2, 3, 12, 16, 20)]
    calls += [lambda: mc_vertices(sphere_dgla()),
              lambda: mc_vertices(zero_dgla())]
    calls += [lambda m=m: mc_vertices(f_xa_dgla(m), support=m) for m in (3, 4, 5)]
    calls += [lambda size=size, n=n: mc_simplices(g_s_dgla(size, 2), n, 2)
              for size in (1, 2, 3) for n in (0, 1, 2)]
    calls += [lambda size=size, n=n: mc_module.solve_structured(
                  derive_constraints(g_s_dgla(size, 2), n))
              for size in (1, 2, 3) for n in (0, 1, 2)]
    calls += [
        lambda: mc_simplices(abelian_dgla({-1: ["u", "v"], -2: ["w"]}, chain), 1, 2),
        lambda: mc_simplices(abelian_dgla({-1: ["u", "v"], -2: ["w"]}, two_to_w), 1, 2),
        lambda: mc_simplices(f_xa_dgla(4), 1, 2, support=4),
        lambda: pi0_moduli(disjoint_product(ab_line, zero_dgla(), 4), support=2),
        lambda: pi0_moduli(disjoint_product(heisenberg_dgla(),
                                            abelian_dgla({0: ["z"]}), 4,
                                            check="skip")),
        lambda: [verify_theorem_f([zero_dgla()] * k, 4) for k in (1, 2, 3)],
        lambda: verify_theorem_f([ab_line, zero_dgla()], 4),
        lambda: verify_theorem_f([heisenberg_dgla(), abelian_dgla({0: ["z"]})], 4),
        lambda: [verify_component_decomposition(g) for g in
                 (pi0_chain, sphere_dgla(), heisenberg_dgla(), g_s_dgla(2, 2))],
        lambda: [verify_component_decomposition(f_xa_dgla(m), support=m)
                 for m in (4, 5)],
    ]
    mc_module.solve_structured = record
    try:
        for call in calls:
            call()
    finally:
        mc_module.solve_structured = real
    # the two-higher-form product no rule decides
    table = SymbolTable()
    table.add("a[p]", 1, "p")
    table.add("a[q]", 1, "q")
    eq = {tuple(sorted([("a[p]", False), ("a[q]", False)])): QQ(1)}
    systems.append(MCConstraintSystem(abelian_dgla({0: ["p", "q"]}), 1, table,
                                      {"a[p]": "p", "a[q]": "q"}, {"w": eq}))
    # a solved value and a constraint that mention d(g) before the 0-form g
    # becomes constant: the family must drop those terms
    table = SymbolTable()
    for sym, deg in (("a[a]", 1), ("a[b]", 0), ("a[g]", 0), ("a[h]", 0)):
        table.add(sym, deg, sym[2:-1])
    dg, dh = ("a[g]", True), ("a[h]", True)
    equations = {"x": {(("a[a]", False),): QQ(1), (("a[b]", False), dg): QQ(1)},
                 "y": {(dg,): QQ(1), (dh,): QQ(1)},
                 "z": {(dg,): QQ(1)}}
    systems.append(MCConstraintSystem(
        abelian_dgla({0: ["a"], -1: ["b", "g", "h"]}), 1, table,
        {sym: sym[2:-1] for sym in table.form_degree}, equations))
    return systems


def _family_key(fam):
    return ([(s, list(v.items())) for s, v in fam.assignments.items()],
            list(fam.free), [list(c.items()) for c in fam.constraints],
            fam.complete)


def _canonical(result):
    """(complete, steps, branches, families), every polynomial as its
    sorted items."""
    return (result.complete, result.steps, result.branches,
            [(sorted((s, sorted(v.items())) for s, v in f.assignments.items()),
              list(f.free), [sorted(c.items()) for c in f.constraints],
              f.complete, sorted(f.constants)) for f in result.families])


# the solver's answers on _solver_systems(): SOLVER_DIGEST with its step and
# branch counts, re-pinned when the search changes; SOLVER_FAMILIES_DIGEST
# over (complete, families) only, recorded from the solver that rewrote every
# earlier value and constraint on each assignment, and never re-pinned
SOLVER_DIGEST = "21a816632c4154b3ba70546e9e3951792341ccfb935894018f83fd3a4ef43d95"
SOLVER_FAMILIES_DIGEST = \
    "f278c297c87b11102ecdaa6712b9790368ae265539161c2bad05d890c6130bd0"


def test_solver_matches_rebuild_everything_reference(monkeypatch):
    # same families (with dict order), completeness and step count as the
    # solver that rewrites every equation on every assignment
    systems = _solver_systems()
    assert len(systems) > 40
    new = [solve_structured(s) for s in systems]
    canonical = [_canonical(r) for r in new]
    digest = hashlib.sha256(repr(canonical).encode()).hexdigest()
    assert digest == SOLVER_DIGEST
    families = [(c[0], c[3]) for c in canonical]
    digest = hashlib.sha256(repr(families).encode()).hexdigest()
    assert digest == SOLVER_FAMILIES_DIGEST
    monkeypatch.setattr(mc_module, "poly_substitute", _reference_poly_substitute)
    monkeypatch.setattr(mc_module, "_substitute_state", _reference_substitute_state)
    for system, got in zip(systems, new):
        want = solve_structured(system)
        assert [_family_key(f) for f in got.families] == \
            [_family_key(f) for f in want.families]
        assert (got.complete, got.steps, got.branches) == \
            (want.complete, want.steps, want.branches)
    assert [r.steps for r in new[3:6]] == [31, 47, 63]  # g_S 12, 16, 20


def test_solver_skips_states_already_expanded():
    # R3's overlapping children reach each vertex with the symbols assigned
    # in different orders; each of those states is expanded once
    result = solve_structured(derive_constraints(g_s_dgla(24, 2), 0))
    assert result.complete
    assert result.leaves == len(result.families) == 25
    assert result.skipped > 0


def test_is_abelian_agrees_with_full_scan():
    from mclie.defs import build_builtin
    for ref, expected in [("zero", True), ("abelian:2:0", True),
                          ("abelian:1:0", True), ("sphere", False),
                          ("heisenberg", False), ("g_S:3", False),
                          ("f_xa:5", False)]:
        g = build_builtin(ref)
        full = all(g.bracket_labels(d1, l1, d2, l2).is_zero()
                   for (d1, l1), (d2, l2) in
                   itertools.combinations_with_replacement(g.basis_items(), 2))
        assert build_builtin(ref).is_abelian() == full == expected, ref


def test_step_budget_is_a_resource_cap(monkeypatch, capsys):
    from mclie.cli import main
    system = derive_constraints(g_s_dgla(3, 2), 0)
    assert solve_structured(system).steps > 3
    with pytest.raises(SolveBudgetExhausted, match="budget of 3 steps"):
        solve_structured(system, max_steps=3)
    assert issubclass(SolveBudgetExhausted, IncompleteSolve)
    assert MAX_SOLVE_STEPS == 4000
    monkeypatch.setattr(mc_module, "MAX_SOLVE_STEPS", 3)
    rc = main(["mc-moduli", "--builtin", "g_S", "--size", "3"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("resource cap: structured MC solve")
    assert "3 unknowns" in err
    assert len(err.strip().splitlines()) == 1


def test_solver_counts_branches():
    result = solve_structured(derive_constraints(g_s_dgla(2, 2), 0))
    assert result.complete and result.steps >= result.branches > 0


def test_named_errors_replace_asserts(monkeypatch):
    from mclie.dgla import NotMaurerCartan
    g = g_s_dgla(1, 2)
    monkeypatch.setattr(mc_module, "is_mc", lambda g, xi: (False, GradedElement()))
    with pytest.raises(NotMaurerCartan):
        mc_vertices(g)
    with pytest.raises(NotMaurerCartan):
        mc_simplices(g, 0, 2)
    with pytest.raises(ValueError, match="at least one factor"):
        verify_theorem_f([], 4)
    system = derive_constraints(abelian_dgla({-1: ["u"]}), 1)
    family = mc_module.SolutionFamily({}, ["a[u]"], [], True, set())
    with pytest.raises(IncompleteSolve, match="free symbols"):
        family.vertex_element(system)
    family = mc_module.SolutionFamily(
        {"a[u]": {(("a[u]", False),): QQ(1)}}, [], [], True, set())
    with pytest.raises(IncompleteSolve, match="non-constant"):
        family.vertex_element(system)


def test_mc_has_no_assert_statements():
    # certificates must survive python -O
    import ast
    with open(mc_module.__file__) as f:
        tree = ast.parse(f.read())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]
