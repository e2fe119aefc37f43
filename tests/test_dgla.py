import itertools
import random

import pytest

from dense_reference import dense_block
from freelie_reference import bch
from mclie.linalg import QQ, GradedElement
from mclie.dgla import (
    AxiomViolation,
    NotMaurerCartan,
    NotNilpotent,
    abelian_dgla,
    adjoin_mc_variable,
    connected_cover,
    disjoint_product,
    dgla_from_table,
    f_xa_dgla,
    free_product_dgla,
    g_s_dgla,
    gauge_act,
    heisenberg_dgla,
    homology_stability,
    is_mc,
    mc_residual,
    presentation_of,
    sphere_dgla,
    twist,
    zero_dgla,
)


def test_sphere_basis_and_homology():
    s = sphere_dgla()
    assert s.space.labels(-1) == ("x",)
    assert s.space.labels(-2) == ("[x,x]",)
    h = s.homology()
    assert all(h.dim(n) == 0 for n in (-2, -1))


def test_sphere_mc_set_is_zero_and_x():
    # lambda x is MC iff -lambda/2 + lambda^2/2 = 0, i.e. lambda in {0, 1}
    s = sphere_dgla()
    x = s.element("x")
    for lam in (QQ(0), QQ(1)):
        ok, _ = is_mc(s, x.scale(lam))
        assert ok
    for lam in (QQ(2), QQ(-1), QQ(1, 2)):
        ok, _ = is_mc(s, x.scale(lam))
        assert not ok


def test_is_mc_examples():
    s = sphere_dgla()
    ok, res = is_mc(s, GradedElement())
    assert ok and res.is_zero()
    x = s.element("x")
    ok, _ = is_mc(s, x)
    assert ok
    ok, res = is_mc(s, x.scale(2))
    # residual: d(2x) + 1/2 [2x,2x] = -[x,x] + 2[x,x] = [x,x]
    assert not ok
    assert res == GradedElement({(-2, "[x,x]"): QQ(1)})


def test_twist_by_zero_is_identity():
    s = sphere_dgla()
    t = twist(s, GradedElement())
    for n in s.space.degrees():
        assert dense_block(t.d_map, n) == dense_block(s.d_map, n)


def test_twist_requires_mc():
    s = sphere_dgla()
    with pytest.raises(NotMaurerCartan):
        twist(s, s.element("x").scale(2))


def test_twist_twice_recovers():
    # twisting by xi then by -xi (MC in the twisted algebra) recovers d
    s = f_xa_dgla(3)
    x = s.element("x")
    t = twist(s, x)
    ok, _ = is_mc(t, -x)
    assert ok
    back = twist(t, -x)
    for n in s.space.degrees():
        assert dense_block(back.d_map, n) == dense_block(s.d_map, n)


def test_mc_bijection_under_twist():
    # eta in MC(g) iff eta - xi in MC(g^xi), sampled over small elements
    g = f_xa_dgla(4)
    x = g.element("x")
    t = twist(g, x)
    candidates = []
    for c1 in (QQ(0), QQ(1), QQ(-1)):
        for (d, lab) in [(-1, lab) for lab in g.space.labels(-1)][:3]:
            candidates.append(GradedElement({(-1, lab): c1}))
    for eta in candidates:
        ok1, _ = is_mc(g, eta)
        ok2, _ = is_mc(t, eta - x)
        assert ok1 == ok2


def test_adjoin_mc_variable_to_zero_is_sphere():
    g = adjoin_mc_variable(zero_dgla(), 2)
    s = sphere_dgla()
    assert g.space.basis == s.space.basis
    for n in g.space.degrees():
        assert dense_block(g.d_map, n) == dense_block(s.d_map, n)


def test_adjoin_mc_variable_to_line_is_f():
    line = abelian_dgla({0: ["a"]})
    g = adjoin_mc_variable(line, 4)
    f = f_xa_dgla(4)
    assert g.space.basis == f.space.basis
    x = g.element("x")
    ok, _ = is_mc(g, x)
    assert ok
    assert g.d(g.element("a")).is_zero()


def test_disjoint_product_with_zero_acyclic():
    # g u 0 is acyclic in degrees stable between m and m+1
    for g in (abelian_dgla({0: ["a"]}), heisenberg_dgla()):
        gu0 = disjoint_product(g, zero_dgla(), 4)
        flags = homology_stability(gu0)
        assert any(v["stable"] for v in flags.values())
        for n, v in flags.items():
            if v["stable"]:
                assert v["dim"] == 0, "H_%d nonzero: %r" % (n, flags)


def test_disjoint_product_quasi_iso_to_h():
    # g u h is quasi-isomorphic to h: stabilized homology equals H(h)
    g = abelian_dgla({0: ["a"]})
    h = abelian_dgla({1: ["b"]})
    guh = disjoint_product(g, h, 4)
    flags = homology_stability(guh)
    hh = h.homology()
    for n, v in flags.items():
        if v["stable"]:
            assert v["dim"] == hh.dim(n)


def test_disjoint_product_distinguished_mc():
    g = abelian_dgla({0: ["a"]})
    guh = disjoint_product(g, zero_dgla(), 3)
    ok, _ = is_mc(guh, guh.distinguished_mc)
    assert ok


def test_disjoint_product_associativity_jarka():
    # (g u h) u a ~ g u (h u a) by f fixing g,h,a, f(x) = x' + y', f(y) = y'
    from mclie.cehar import dgla_map_from_generators
    ga = abelian_dgla({0: ["p"]})
    hb = abelian_dgla({0: ["q"]})
    ac = abelian_dgla({0: ["r"]})
    m = 3
    left = disjoint_product(disjoint_product(ga, hb, m), ac, m)   # ((g u h) u a)
    right = disjoint_product(ga, disjoint_product(hb, ac, m), m)  # (g u (h u a))
    # in 'right' the outer variable is x (g's), the inner is x' (h's);
    # in 'left' the inner is x (g's), the outer is x' (a's side)
    x_left = left.element("x")     # g's variable in (g u h)
    y_left = left.element("x'")    # outer variable
    images = {"p": left.element("p"), "q": left.element("q"), "r": left.element("r"),
              "x": x_left + y_left, "x'": y_left}
    assert dgla_map_from_generators(right, left, images) == \
        {"d_compatible": True, "dims_match": True, "bijective": True}


def test_iterated_disjoint_products_of_zero_match_g_s():
    # g_{*} ~ 0 u 0: map x1 -> -x intertwines the differentials
    from mclie.cehar import dgla_map_from_generators
    g1 = g_s_dgla(1, 3)
    z2 = disjoint_product(zero_dgla(), zero_dgla(), 3)
    assert dgla_map_from_generators(g1, z2, {"x1": -z2.element("x")}) == \
        {"d_compatible": True, "dims_match": True, "bijective": True}


def test_connected_cover_nonnegative_unchanged():
    g = heisenberg_dgla()
    cover, incl = connected_cover(g)
    assert cover.space.total_dim() == 3
    hc, hg = cover.homology(), g.homology()
    for n in hg.degrees():
        if n >= 0:
            assert hc.dim(n) == hg.dim(n)


def test_connected_cover_of_sphere_is_zero():
    s = sphere_dgla()
    cover, _ = connected_cover(s)
    assert cover.space.total_dim() == 0


def test_connected_cover_homology_iso_nonneg():
    # mixed-degree abelian dgla with nontrivial d
    g = abelian_dgla({1: ["u"], 0: ["v", "w"], -1: ["z"]},
                     {"v": GradedElement({(-1, "z"): QQ(1)})})
    cover, incl = connected_cover(g)
    hg, hc = g.homology(), cover.homology()
    for n in (0, 1, 2):
        assert hc.dim(n) == hg.dim(n)


def test_gauge_act_zero_parameter():
    s = sphere_dgla()
    x = s.element("x")
    assert gauge_act(s, GradedElement(), x) == x


def test_gauge_act_exponential_orbit_in_f():
    # exp(a).e0 = sum e_k / k! within the truncation
    m = 5
    g = f_xa_dgla(m)
    a = g.element("a")
    x = g.element("x")
    out = gauge_act(g, a, x)
    e = [x]
    labels = ["x"]
    for k in range(1, m):
        e.append(g.bracket(a, e[-1]))
    expected = GradedElement()
    fact = QQ(1)
    for k, ek in enumerate(e):
        if k:
            fact *= k
        expected = expected + ek.scale(QQ(1) / fact)
    assert out == expected


def test_gauge_act_abelian_is_translation():
    g = abelian_dgla({0: ["a"], -1: ["u"], -2: ["w"]},
                     {"a": GradedElement({(-1, "u"): QQ(1)})})
    xi = GradedElement()
    out = gauge_act(g, g.element("a").scale(QQ(3)), xi)
    assert out == GradedElement({(-1, "u"): QQ(-3)})


def test_gauge_group_property_bch():
    # gauge(a, gauge(b, xi)) = gauge(BCH(a,b), xi) within the truncation
    m = 4
    g = f_xa_dgla(m)
    q = g.presentation.pres.materialize(m)
    a = g.element("a")
    x = g.element("x")
    one_step = gauge_act(g, a.scale(QQ(1, 2)), gauge_act(g, a.scale(QQ(1, 3)), x))
    z = bch(q.free, a.scale(QQ(1, 2)), a.scale(QQ(1, 3)))
    combined = gauge_act(g, q.project(z), x)
    assert one_step == combined


def test_gauge_preserves_mc_exactly():
    g = f_xa_dgla(4)
    x = g.element("x")
    out = gauge_act(g, g.element("a"), x)
    ok, res = is_mc(g, out)
    assert ok and res.is_zero()


def test_free_product_dgla_dims():
    a = abelian_dgla({0: ["a"]})
    b = abelian_dgla({0: ["b"]})
    p = free_product_dgla(a, b, 2)
    assert p.space.total_dim() == 3


def test_free_product_primes_the_second_factors_clashing_names():
    g = heisenberg_dgla()
    p = free_product_dgla(g, g, 3)
    assert p.second_factor_names == {"a": "a'", "b": "b'", "c": "c'"}
    assert [list(r.coeffs.items()) for r in p.presentation.pres.relations[3:]] == \
        [[((0, "[a',c']"), 1)], [((0, "[b',c']"), 1)],
         [((0, "[a',b']"), 1), ((0, "c'"), -1)]]
    assert p.bracket(p.element("a'"), p.element("b'")) == p.element("c'")
    assert p.bracket(p.element("a"), p.element("b'")) != GradedElement()


def test_homology_of_f_truncation_stabilized():
    # H(f) should match H(abelian line) + acyclic part in stable degrees
    g = f_xa_dgla(4)
    flags = homology_stability(g)
    line = abelian_dgla({0: ["a"]})
    hl = line.homology()
    for n, v in flags.items():
        if v["stable"]:
            assert v["dim"] == hl.dim(n)


def test_twist_of_adjoined_variable_is_disjoint_with_zero():
    # twist(g<x>, x) has the same differential as g u 0
    line = abelian_dgla({0: ["a"]})
    adjoined = adjoin_mc_variable(line, 3)
    twisted = twist(adjoined, adjoined.element("x"))
    gu0 = disjoint_product(line, zero_dgla(), 3)
    assert twisted.space.basis == gu0.space.basis
    for n in twisted.space.degrees():
        assert dense_block(twisted.d_map, n) == dense_block(gu0.d_map, n)


def test_twisted_disjoint_product_swaps_factors():
    # h u g = (g u h)^{-x} via the identity on g, h and x -> -x
    from mclie.cehar import dgla_map_from_generators
    g = abelian_dgla({0: ["p"]})
    h = abelian_dgla({0: ["q"]})
    m = 3
    guh = disjoint_product(g, h, m)
    ok, _ = is_mc(guh, -guh.twist_of)
    assert ok
    retwisted = twist(guh, -guh.twist_of)
    hug = disjoint_product(h, g, m)
    images = {"p": retwisted.element("p"), "q": retwisted.element("q"),
              "x": -retwisted.element("x")}
    assert dgla_map_from_generators(hug, retwisted, images) == {"d_compatible": True, "dims_match": True,
                      "bijective": True}


def test_gauge_not_nilpotent_error():
    # [a, u] = u makes ad_a non-nilpotent on the MC element u
    u = GradedElement({(-1, "u"): QQ(1)})
    g = dgla_from_table({0: ["a"], -1: ["u"]},
                        {("a", "u"): u, ("u", "u"): GradedElement()},
                        check="full")
    with pytest.raises(NotNilpotent):
        gauge_act(g, g.element("a"), u)


def test_iterated_zeros_match_g_s_two_points():
    # g_{*,*} = free on x1, x2 with dx_i = -1/2 [x_i,x_i] is isomorphic to
    # (0 u 0) u 0 via x1 -> -(x + x'), x2 -> -x'
    from mclie.cehar import dgla_map_from_generators
    m = 3
    src = g_s_dgla(2, m)
    dst = disjoint_product(disjoint_product(zero_dgla(), zero_dgla(), m),
                           zero_dgla(), m)
    x, xp = dst.element("x"), dst.element("x'")
    images = {"x1": -(x + xp), "x2": -xp}
    assert dgla_map_from_generators(src, dst, images) == {"d_compatible": True, "dims_match": True,
                      "bijective": True}


def test_gauge_moves_are_invertible():
    # gauge(-a, gauge(a, xi)) returns xi exactly within the truncation
    g = f_xa_dgla(4)
    a = g.element("a").scale(QQ(2, 3))
    x = g.element("x")
    assert gauge_act(g, -a, gauge_act(g, a, x)) == x


def test_failed_mc_post_checks_raise_not_maurer_cartan(monkeypatch):
    # the checks on constructed MC elements must survive python -O
    import mclie.dgla
    real = mclie.dgla.is_mc
    calls = []

    def fails_after(n):
        def check(g, xi):
            calls.append(xi)
            ok, res = real(g, xi)
            return (ok and len(calls) <= n), res
        return check

    monkeypatch.setattr(mclie.dgla, "is_mc", fails_after(0))
    with pytest.raises(NotMaurerCartan, match="adjoined variable"):
        adjoin_mc_variable(zero_dgla(), 2)
    with pytest.raises(NotMaurerCartan, match="distinguished MC element"):
        disjoint_product(abelian_dgla({0: ["a"]}), zero_dgla(), 3)
    calls.clear()
    # the first call checks the input, the second the result
    monkeypatch.setattr(mclie.dgla, "is_mc", fails_after(1))
    s = sphere_dgla()
    with pytest.raises(NotMaurerCartan, match="gauge action"):
        gauge_act(s, GradedElement(), s.element("x"))


def test_dgla_has_no_assert_statements():
    import ast
    import mclie.dgla
    with open(mclie.dgla.__file__) as f:
        tree = ast.parse(f.read())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]


# -- construction-time axiom checks -------------------------------------------


def _gen(n, lab, c=1):
    return GradedElement({(n, lab): QQ(c)})


def _raises_exactly(message, build):
    with pytest.raises(AxiomViolation) as info:
        build()
    assert type(info.value) is AxiomViolation
    assert str(info.value) == message


def _jacobi_breaker(n):
    """n degree-0 basis elements; [a,b] = c and [b,c] = b break Jacobi on
    (a, b, c), every other bracket is zero, so every pair check passes."""
    labels = ["a", "b", "c"] + ["z%d" % i for i in range(n - 3)]
    return {0: labels}, {("a", "b"): _gen(0, "c"), ("b", "c"): _gen(0, "b")}


@pytest.mark.parametrize("message,build", [
    ("d squared is nonzero",
     lambda: dgla_from_table({0: ["a"], -1: ["b"], -2: ["c"]}, {},
                             {"a": _gen(-1, "b"), "b": _gen(-2, "c")}, check="skip")),
    ("antisymmetry fails on (a, b)",
     lambda: dgla_from_table({0: ["a", "b", "c"]},
                             {("a", "b"): _gen(0, "c"), ("b", "a"): _gen(0, "c")})),
    ("Leibniz fails on (y, x)",
     lambda: dgla_from_table({1: ["x"], 0: ["y"]}, {("x", "y"): _gen(1, "x")},
                             {"x": _gen(0, "y")})),
    ("Jacobi fails on (a, b, c)",
     lambda: dgla_from_table(*_jacobi_breaker(3))),
    # [u,v] = [v,w] = 0, so only the term (-1)^{|u||v|} [v,[u,w]] sees the
    # failure on (u, v, w); a loop that skipped it would name (u, w, v)
    ("Jacobi fails on (u, v, w)",
     lambda: dgla_from_table({0: ["u", "v", "w", "z", "t"]},
                             {("u", "w"): _gen(0, "z"), ("v", "z"): _gen(0, "t")})),
])
def test_dgla_axiom_failures_name_the_check(message, build):
    _raises_exactly(message, build)


def test_dgla_auto_check_runs_up_to_24_basis_elements():
    _raises_exactly("Jacobi fails on (a, b, c)",
                    lambda: dgla_from_table(*_jacobi_breaker(24), check="auto"))
    g = dgla_from_table(*_jacobi_breaker(25), check="auto")
    _raises_exactly("Jacobi fails on (a, b, c)",
                    lambda: g.verify_axioms(triple_cap=25))


def test_dgla_verify_axioms_caps_skip_whole_loops():
    g = dgla_from_table(*_jacobi_breaker(5), check="skip")
    g.verify_axioms(triple_cap=4)
    _raises_exactly("Jacobi fails on (a, b, c)",
                    lambda: g.verify_axioms(triple_cap=5))
    h = dgla_from_table({0: ["a", "b", "c"]},
                        {("a", "b"): _gen(0, "c"), ("b", "a"): _gen(0, "c")},
                        check="skip")
    h.verify_axioms(pair_cap=2, triple_cap=0)
    _raises_exactly("antisymmetry fails on (a, b)",
                    lambda: h.verify_axioms(pair_cap=3, triple_cap=0))


def _random_element(rng, g, terms):
    items = g.basis_items()
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


@pytest.mark.parametrize("build", [heisenberg_dgla, lambda: g_s_dgla(3)])
def test_bracket_matches_copy_per_term_reference(build):
    g = build()
    rng = random.Random(7)
    for _ in range(40):
        u = _random_element(rng, g, rng.randrange(2, 8))
        v = _random_element(rng, g, rng.randrange(2, 8))
        got = g.bracket(u, v)
        assert list(got.coeffs.items()) == \
            list(reference_product(g.bracket_labels, u, v).coeffs.items())
        assert all(type(c) is QQ for c in got.coeffs.values())


# every presented dgla in _presented_builds(): its basis, weights, weight
# bound, the columns of d, the bracket of every ordered basis pair, its
# presentation (generators, relations, nonzero generator differentials) and
# the MC data of a disjoint product, every term in order; a build that
# raises is recorded by its exception.  Recorded while each construction
# adjoined its MC variable and took its free product by hand
PRESENTATION_DIGEST = "5917dd429c646f56218a2a6742aa1c8122264d7abe21359bf92ca61753bd7211"


def _presented_builds():
    from mclie.cehar import harrison
    from mclie.defs import load_algebra
    u, v = (GradedElement({(-1, lab): QQ(1)}) for lab in "uv")
    # [a,u] = v and d(a) = u
    table = lambda: dgla_from_table({0: ["a"], -1: ["u", "v"]}, {("a", "u"): v}, {"a": u})
    line = lambda: abelian_dgla({0: ["a"]})
    named = [("line", line), ("heisenberg", heisenberg_dgla), ("sphere", sphere_dgla),
             ("zero", zero_dgla), ("g_S:2", lambda: load_algebra("g_S:2")),
             ("abelian:2:0", lambda: load_algebra("abelian:2:0")), ("table", table),
             ("f_xa:2", lambda: load_algebra("f_xa:2"))]
    builds = [("sphere", m, lambda m=m: sphere_dgla(m)) for m in (2, 3, 4)]
    builds += [("g_S:%d" % k, m, lambda k=k, m=m: g_s_dgla(k, m))
               for k in (1, 2, 3, 5) for m in (2, 3)]
    builds += [("f_xa", m, lambda m=m: f_xa_dgla(m)) for m in (1, 2, 3, 5)]
    builds.append(("heisenberg", 3, heisenberg_dgla))
    adjoin_to = [named[i] for i in (0, 1, 2, 7, 3, 4, 6)]
    builds += [("%s<x>" % name, m, lambda g=g, m=m: adjoin_mc_variable(g(), m))
               for name, g in adjoin_to for m in (2, 3, 4)]
    for (n1, g), (n2, h) in itertools.product(named, repeat=2):
        for m in (2, 3):
            builds.append(("%s u %s" % (n1, n2), m, lambda g=g, h=h, m=m:
                           disjoint_product(g(), h(), m, check="skip")))
            builds.append(("%s * %s" % (n1, n2), m, lambda g=g, h=h, m=m:
                           free_product_dgla(g(), h(), m, check="skip")))
    builds.append(("(line u line) u line", 3, lambda: disjoint_product(
        disjoint_product(line(), line(), 3), line(), 3)))
    builds += [("harrison %s" % ref, m, lambda ref=ref, m=m:
                harrison(load_algebra(ref), m).dgla)
               for ref, m in [("qxq", 3), ("q_eps", 3), ("omega:1:2", 3), ("q_deg2", 4)]]
    return builds


def _presented_record(build):
    try:
        g = build()
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc))

    def terms(elt):
        return None if elt is None else list(elt.coeffs.items())

    items = g.basis_items()
    pres = g.presentation.pres
    return (items, g.weights, g.weight_bound,
            [terms(g.d(g.space.basis_element(n, lab))) for n, lab in items],
            [terms(g.bracket_labels(d1, l1, d2, l2))
             for (d1, l1), (d2, l2) in itertools.product(items, repeat=2)],
            pres.generators, [terms(r) for r in pres.relations],
            [(name, terms(pres.dgens[name])) for name, _, _ in pres.generators
             if not pres.dgens.get(name, GradedElement()).is_zero()],
            terms(getattr(g, "twist_of", None)), terms(getattr(g, "distinguished_mc", None)),
            getattr(g, "second_factor_names", None))


def test_presented_dgla_digest():
    import hashlib
    records = [(name, m, _presented_record(build)) for name, m, build in _presented_builds()]
    # f_xa at m = 1 and everything with heisenberg at m = 2 raise: d(x) and
    # the relation [a,c] do not fit the truncation
    assert len(records) == 298
    assert sum(rec[0] == "raises" for _, _, rec in records) == 32
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == PRESENTATION_DIGEST
