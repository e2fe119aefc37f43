import hashlib
import itertools

import pytest

from dense_reference import ce_generator_differentials, dense_rank
from mclie.linalg import QQ, GradedElement, RowSpace
from mclie.dgla import (
    abelian_dgla,
    dgla_from_table,
    f_xa_dgla,
    heisenberg_dgla,
    sphere_dgla,
    twist,
    zero_dgla,
)
from mclie.cdga import FiniteTableCdga, FreePolynomialCdga
from mclie.defs import load_algebra
from mclie.dgla import free_product_dgla
from mclie.freelie import InvalidDifferential, TruncationTooLarge
from mclie.cehar import (
    CEComplex,
    CertificateFailure,
    MinimalModel,
    TransferData,
    cdga_product,
    ce_cohomology,
    ce_complex,
    compare_free_product,
    harrison,
    harrison_product_comparison,
    mc_augmentation_dictionary,
    minimal_model,
    _generator_products,
    _product_truncation,
)


def qxq_cdga():
    e = GradedElement({(0, "e"): QQ(1)})
    return FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1",
                           augmentation={"1": QQ(1), "e": QQ(0)})


def q_deg2_cdga():
    return FiniteTableCdga({0: ["1"], 2: ["w"]}, {("w", "w"): GradedElement()},
                           "1", augmentation={"1": QQ(1), "w": QQ(0)})


def q_eps_cdga():
    return FiniteTableCdga({0: ["1", "eps"]}, {("eps", "eps"): GradedElement()},
                           "1", augmentation={"1": QQ(1), "eps": QQ(0)})


def q_cdga():
    return FiniteTableCdga({0: ["1"]}, {}, "1", augmentation={"1": QQ(1)})


# --- CE complexes -------------------------------------------------------------


def test_ce_abelian_line():
    g = abelian_dgla({0: ["a"]})
    table = ce_cohomology(g, 3, (1, 3))
    assert table[1] == {"dim": 1, "flag": "exact"}
    assert table[2]["dim"] == 0 and table[3]["dim"] == 0


def test_ce_sphere_acyclic_stabilized():
    s = sphere_dgla()
    table = ce_cohomology(s, 4, (-1, 2))
    for n, cell in table.items():
        if cell["flag"] in ("exact", "stable"):
            assert cell["dim"] == 0, (n, cell)
    assert any(cell["flag"] == "stable" for cell in table.values())


def classical_ce_oracle(dim, bracket_coeffs):
    """Brute-force CE cohomology of a Lie algebra concentrated in degree 0:
    the exterior algebra on the dual with the textbook differential.
    bracket_coeffs[(i, j)] = coefficient vector of [x_i, x_j], i < j."""
    import itertools as it

    def subsets(p):
        return list(it.combinations(range(dim), p))

    def d_matrix(p):
        rows = subsets(p + 1)
        cols = subsets(p)
        m = [[QQ(0)] * len(cols) for _ in rows]
        for cidx, phi in enumerate(cols):
            # d phi (x_{i_0}, ..., x_{i_p}) =
            #   sum_{r<s} (-1)^{r+s} phi([x_r, x_s], rest)
            for ridx, arg in enumerate(rows):
                total = QQ(0)
                for r in range(p + 1):
                    for s in range(r + 1, p + 1):
                        br = bracket_coeffs.get((arg[r], arg[s]), [QQ(0)] * dim)
                        rest = tuple(x for t, x in enumerate(arg) if t != r and t != s)
                        for k in range(dim):
                            if not br[k]:
                                continue
                            ins = tuple(sorted((k,) + rest))
                            if len(set((k,) + rest)) != p or ins != tuple(sorted(ins)):
                                pass
                            if len(set((k,) + rest)) != p:
                                continue
                            # sign of sorting k into rest
                            pos = sum(1 for x in rest if x < k)
                            sgn = QQ(-1) ** (r + s) * QQ(-1) ** pos
                            if ins == phi:
                                total += sgn * br[k]
                m[ridx][cidx] = total
        return m, len(cols)

    dims = {}
    for p in range(1, dim + 1):
        m_out, ncols = d_matrix(p)
        rank_out = dense_rank(m_out, ncols)
        if p == 1:
            rank_in = 0
        else:
            m_in, nc_in = d_matrix(p - 1)
            rank_in = dense_rank(m_in, nc_in)
        dims[p] = ncols - rank_out - rank_in
    return {p: v for p, v in dims.items() if v}


def test_ce_heisenberg_against_exterior_oracle():
    g = heisenberg_dgla()
    table = ce_cohomology(g, 3, (1, 3))
    got = {n: cell["dim"] for n, cell in table.items() if cell["dim"]}
    # oracle: Heisenberg structure constants [x0, x1] = x2
    oracle = classical_ce_oracle(3, {(0, 1): [QQ(0), QQ(0), QQ(1)]})
    assert got == oracle == {1: 2, 2: 2, 3: 1}
    assert all(cell["flag"] == "exact" for cell in table.values())


def test_ce_weight_stability():
    # per-weight CE cohomology is independent of the bound once it covers
    # the weight
    g = heisenberg_dgla()
    ce3 = ce_complex(g, 3, truncate_by="weight")
    ce5 = ce_complex(g, 5, truncate_by="weight")
    for w in (1, 2, 3):
        assert ce3.weight_block_dims(w) == ce5.weight_block_dims(w)


@pytest.mark.parametrize("case", ["heisenberg", "free-product", "g_S:3",
                                  "sphere", "f_xa:4"])
def test_ce_dgens_equal_target_first_reference(case):
    truncate_by = "length"
    bound = 3
    if case == "free-product":
        # bound 4 reaches the weight-4 targets, several of which receive
        # two or more distinct products, so the term order is tested
        g = free_product_dgla(load_algebra("abelian:2:0"),
                              load_algebra("abelian:1:0"), 4, check="skip")
        truncate_by = "weight"
        bound = 4
    else:
        g = load_algebra(case)
    ce = ce_complex(g, bound, truncate_by=truncate_by)
    ref = ce_generator_differentials(g, bound, truncate_by)
    got = ce.algebra._dgens
    assert list(got) == list(ref)
    assert any(not v.is_zero() for v in ref.values())
    for name, v in ref.items():
        # same terms in the same order
        assert list(v.coeffs.items()) == list(got[name].coeffs.items()), name


@pytest.mark.parametrize("case", ["heisenberg", "free-product", "g_S:3",
                                  "sphere", "f_xa:4"])
def test_ce_generator_products_match_scratch_algebra(case):
    # the products d_II reads off generator indices equal the products of
    # the generators in a free cdga at the same truncation, and the weight
    # of each label they write is that monomial's weight there
    truncate_by, bound = "length", 3
    if case == "free-product":
        g = free_product_dgla(load_algebra("abelian:2:0"),
                              load_algebra("abelian:1:0"), 4, check="skip")
        truncate_by, bound = "weight", 4
    else:
        g = load_algebra(case)
    gens = ce_complex(g, bound, truncate_by=truncate_by).algebra.generators
    scratch = FreePolynomialCdga(gens, bound, {}, check="skip")
    multiply, label_weight = _generator_products(gens, bound)
    inside = [name for name, _, w in gens if w <= bound]
    odd_pairs = 0
    for si, sj in itertools.product(inside, repeat=2):
        got = multiply(si, sj)
        want = scratch.multiply(scratch.generator_element(si),
                                scratch.generator_element(sj))
        assert list(got.coeffs.items()) == list(want.coeffs.items()), (si, sj)
        for _, lab in got.coeffs:
            assert label_weight[lab] == scratch.weights[lab]
        odd_pairs += -QQ(1) in got.coeffs.values()
    # two odd generators out of order multiply with the sign -1
    assert bool(odd_pairs) == (sum(c % 2 for _, c, _ in gens) > 1)
    assert {name: w for name, _, w in gens}.items() <= label_weight.items()


@pytest.mark.parametrize("truncate_by,case", [
    ("length", "heisenberg"), ("length", "sphere"), ("length", "g_S:3"),
    ("length", "f_xa:4"), ("length", "abelian:2:0"),
    ("weight", "heisenberg"), ("weight", "abelian:2:0"),
    ("weight", "abelian:1:1"), ("weight", "free-product")])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_ce_pair_skip_matches_all_pairs_reference(truncate_by, case, bound):
    # the free product has weight-2 and weight-3 elements with nonzero
    # brackets, so the bounds 1-3 cut through its cells
    if case == "free-product":
        g = free_product_dgla(load_algebra("heisenberg"),
                              load_algebra("abelian:1:0"), 4, check="skip")
    else:
        g = load_algebra(case)
    weights = (g.weights or {}) if truncate_by == "weight" else {}
    degrees = set(g.space.degrees())
    g._products.clear()
    ce = ce_complex(g, bound, truncate_by=truncate_by)
    # only the pairs whose product survives the truncation are asked for
    asked = {(l1, l2) for (n1, l1), (n2, l2) in
             itertools.product(g.basis_items(), repeat=2)
             if weights.get(l1, 1) + weights.get(l2, 1) <= bound
             and n1 + n2 in degrees}
    assert set(g._products) == asked
    if truncate_by == "length" and bound == 1:
        assert not asked
    ref = ce_generator_differentials(g, bound, truncate_by)
    got = ce.algebra._dgens
    assert list(got) == list(ref)
    for name, v in ref.items():
        assert list(v.coeffs.items()) == list(got[name].coeffs.items()), name


def test_ce_size_cap_fires_before_any_bracket():
    # the CE algebra of f_xa:11 at word bound 2 is one monomial over the
    # cap: the count runs before d_II asks g for a bracket
    g = load_algebra("f_xa:11")
    g._products.clear()
    with pytest.raises(TruncationTooLarge, match=r"at least 20001 elements \(cap 20000\)$"):
        ce_complex(g, 2)
    assert not g._products


def test_ce_word_bound_one_and_below():
    g = heisenberg_dgla()
    ce = ce_complex(g, 1)
    # products of two generators lie beyond the truncation
    assert all(v.is_zero() for v in ce.algebra._dgens.values())
    with pytest.raises(ValueError):
        CEComplex(g, 0)


def filiform_dgla():
    c = GradedElement({(0, "c"): QQ(1)})
    e = GradedElement({(0, "e"): QQ(1)})
    return dgla_from_table({0: ["a", "b", "c", "e"]},
                           {("a", "b"): c, ("a", "c"): e})


def test_ce_exact_flag_needs_the_next_word_length():
    # at word bound 2 the length-3 part of d out of degree 2 is cut off,
    # so H^2 reads 4 there; the true value is 2
    g = filiform_dgla()
    table = ce_cohomology(g, 2, (1, 2))
    assert table[1] == {"dim": 2, "flag": "exact"}
    assert table[2] == {"dim": 4, "flag": "unstable"}
    for bound in (3, 4, 5):
        assert ce_cohomology(g, bound, (2, 2))[2] == {"dim": 2, "flag": "exact"}


# --- Harrison -----------------------------------------------------------------


def reference_harrison_dgens(a):
    """d on the Harrison generators with the loop over the target outside
    the sources, the way the differential is written."""
    from mclie.freelie import FreeLieTruncation
    items = a.basis_items()
    drop = [(n, lab) for n, lab in items if a.augmentation.get(lab, QQ(0))][0]
    plus = [(n, lab) for n, lab in items if (n, lab) != drop]
    tau = {lab: "T(%s)" % lab for _, lab in plus}

    def plus_coords(elt):
        coeffs = dict((elt - a.unit.scale(a.eps(elt))).coeffs)
        cdrop = coeffs.pop(drop, QQ(0))
        if cdrop:
            u_drop = a.unit.coeff(*drop)
            for k, v in a.unit.coeffs.items():
                if k != drop:
                    coeffs[k] = coeffs.get(k, QQ(0)) - cdrop / u_drop * v
        return GradedElement(coeffs)

    gens = [(tau[lab], -n - 1, 1) for n, lab in plus]
    scratch = FreeLieTruncation(gens, 2)
    out = {}
    for n, lab in plus:
        val = GradedElement()
        for n2, lab2 in plus:
            if n2 - 1 != n:
                continue
            c = plus_coords(a.d(a.space.basis_element(n2, lab2))).coeff(n, lab)
            if c:
                val = val + scratch.generator(tau[lab2]).scale(c)
        for (n1, lab1), (n2, lab2) in itertools.product(plus, repeat=2):
            if n1 + n2 != n:
                continue
            c = plus_coords(a.multiply(a.space.basis_element(n1, lab1),
                                       a.space.basis_element(n2, lab2))
                            ).coeff(n, lab)
            if not c:
                continue
            sign = QQ(-1) if (-n1) % 2 else QQ(1)
            br = scratch.bracket(scratch.generator(tau[lab1]),
                                 scratch.generator(tau[lab2]))
            val = val + br.scale(QQ(-1, 2) * sign * c)
        out[tau[lab]] = val
    return out


@pytest.mark.parametrize("case", ["omega:1:2", "qxq", "omega:1:3"])
def test_harrison_dgens_equal_target_first_reference(case):
    a = load_algebra(case)
    got = harrison(a, 3).presentation.pres.dgens
    ref = reference_harrison_dgens(a)
    assert list(got) == list(ref)
    assert any(not v.is_zero() for v in ref.values())
    for name, v in ref.items():
        assert list(v.coeffs.items()) == list(got[name].coeffs.items()), name



def test_harrison_of_two_points_is_sphere():
    h = harrison(qxq_cdga(), 2)
    g = h.dgla
    s = sphere_dgla()
    assert [g.space.dim(n) for n in (-1, -2)] == [1, 1]
    tau = g.element("T(e)")
    # d tau = -1/2 [tau, tau]: identical structure constants to the sphere
    assert g.d(tau) == g.bracket(tau, tau).scale(QQ(-1, 2))
    assert [s.space.dim(n) for n in (-1, -2)] == [1, 1]


def reordered_qxq_cdga():
    """Q x Q with e listed before the unit and augmented through e."""
    e = GradedElement({(0, "e"): QQ(1)})
    return FiniteTableCdga({0: ["e", "1"]}, {("e", "e"): e}, "1",
                           augmentation={"1": QQ(1), "e": QQ(1)})


def test_harrison_unit_slot_is_on_the_unit():
    # e is the first label with eps != 0, but the unit has no e-component:
    # the slot is 1, and A_+ is spanned by e - 1 with (e - 1)^2 = -(e - 1),
    # so L(Q x Q) is the acyclic sphere model on -T(e)
    h = harrison(reordered_qxq_cdga(), 2)
    assert h.plus_items == [(0, "e")]
    g = h.dgla
    tau = g.element("T(e)")
    assert g.d(tau) == g.bracket(tau, tau).scale(QQ(1, 2))
    assert all(g.homology().dim(n) == 0 for n in (-1, -2))


def q_cubed_cdga():
    """Q^3 on 1, f, e with eps(f) = 1: A_+ is spanned by the orthogonal
    idempotents f - 1 and e."""
    f, e, one = (GradedElement({(0, lab): QQ(1)}) for lab in ("f", "e", "1"))
    return FiniteTableCdga({0: ["1", "f", "e"]},
                           {("f", "f"): f.scale(3) - one.scale(2), ("f", "e"): e,
                            ("e", "e"): e}, "1",
                           augmentation={"1": QQ(1), "f": QQ(1), "e": QQ(0)})


def test_harrison_reads_products_of_the_adjusted_basis():
    # eps(f) = 1 off the unit slot: read off f f = 3 f - 2 instead of
    # (f - 1)(f - 1) = f - 1, d(d(T(e))) would be 2 [T(f),[T(f),T(e)]]
    for m in (2, 3, 4):
        h = harrison(q_cubed_cdga(), m)
        assert [lab for _, lab in h.plus_items] == ["f", "e"]
        g, ref = h.dgla.homology(), harrison(load_algebra("qk:3"), m).dgla.homology()
        degrees = set(g.degrees()) | set(ref.degrees())
        assert {n: g.dim(n) for n in degrees} == {n: ref.dim(n) for n in degrees}


def test_harrison_of_ground_field_is_zero():
    h = harrison(q_cdga(), 3)
    assert h.dgla.space.total_dim() == 0


def test_harrison_product_comparison():
    m = 3
    # A's unit slot maps to -x plus the eps-corrections, also when it is not
    # A's first label with eps != 0 and when eps is nonzero off the slot
    algebras = [qxq_cdga(), q_eps_cdga(), q_deg2_cdga(), reordered_qxq_cdga(),
                q_cubed_cdga()]
    for a, b in itertools.product(algebras, repeat=2):
        report = harrison_product_comparison(a, b, m)
        assert report["d_compatible"], (a, b, report)
        assert report["dims_match"], (a, b, report)
        assert report["bijective"], (a, b, report)


# --- free product cohomology ----------------------------------------------------


def test_compare_free_product_abelian_abelian():
    g = abelian_dgla({0: ["a"]})
    h = abelian_dgla({0: ["b"]})
    report = compare_free_product(g, h, 4, 4)
    assert report["pass"], report
    # degree-1 weight-1 cell: dim 2 = 1 + 1
    assert report["cells"][(1, 1)]["product"] == 2


def test_compare_free_product_heisenberg_abelian():
    g = heisenberg_dgla()
    h = abelian_dgla({0: ["z"]})
    report = compare_free_product(g, h, 4, 4)
    assert report["pass"], report


@pytest.mark.parametrize("pair,heaviest", [
    (("heisenberg", "abelian:1:0"), 3), (("abelian:2:0", "abelian:1:0"), 2),
    (("abelian:1:1", "abelian:1:0"), 2), (("heisenberg", "heisenberg"), 3)])
def test_product_truncation_keeps_the_cells_below_m(pair, heaviest):
    # heaviest: the largest relation weight of the two presentations
    # t >= m - 1, so the build at t + 1 has every cell the window reads
    g, h = (load_algebra(ref) for ref in pair)
    for m in range(2, 6):
        t = _product_truncation(g, h, m)
        assert t == max(m - 1, heaviest)
        above = free_product_dgla(g, h, t + 1, check="skip")
        at_t = free_product_dgla(g, h, t, check="skip")
        assert max(at_t.weights.values()) == t
        # the same labels, in the same order, in every cell of weight <= t
        assert at_t.basis_items() == [(n, lab) for n, lab in above.basis_items()
                                      if above.weights[lab] <= t]
        assert at_t.weights == {lab: w for lab, w in above.weights.items() if w <= t}
        items = at_t.basis_items()
        for (n1, l1), (n2, l2) in itertools.product(items, repeat=2):
            if at_t.weights[l1] + at_t.weights[l2] <= t:
                assert list(at_t.bracket_labels(n1, l1, n2, l2).coeffs.items()) == \
                    list(above.bracket_labels(n1, l1, n2, l2).coeffs.items())
        for n, lab in items:
            e = at_t.space.basis_element(n, lab)
            assert list(at_t.d(e).coeffs.items()) == list(above.d(e).coeffs.items())


def test_product_truncation_keeps_m_for_other_presentations():
    g = heisenberg_dgla()
    # a relation whose terms differ in weight, and a generator differential
    mixed = dgla_from_table({0: ["a", "b"]}, {("a", "b"): GradedElement({(0, "a"): QQ(1)})})
    assert _product_truncation(g, mixed, 5) == 5
    assert _product_truncation(g, sphere_dgla(), 5) == 5
    assert _product_truncation(g, abelian_dgla({0: ["z"]}), 5) == 4


def _table_heisenberg(a, b, c):
    """The Heisenberg algebra as a table, [a,b] = c with c of weight 2."""
    return dgla_from_table({0: [a, b, c]}, {(a, b): GradedElement({(0, c): QQ(1)})},
                           weights={a: 1, b: 1, c: 2})


def test_product_truncation_reads_generator_names_with_commas_and_brackets():
    # relation weights sum over the tree each label reads as, so the names
    # a,b  x[  q] weigh their relations like a b c: the product is built at
    # m - 1, where the cells below m are the same, so the report is too
    plain = _table_heisenberg("a", "b", "c")
    awkward = _table_heisenberg("a,b", "x[", "q]")
    h = abelian_dgla({0: ["z"]})
    for m in (4, 5):
        assert _product_truncation(awkward, h, m) == _product_truncation(plain, h, m) == m - 1
        assert compare_free_product(awkward, h, m, m) == compare_free_product(plain, h, m, m)


def test_compare_free_product_with_zero():
    g = heisenberg_dgla()
    report = compare_free_product(g, zero_dgla(), 4, 4)
    assert report["pass"], report


# --- MC dictionary ----------------------------------------------------------------


def test_dictionary_zero_element():
    s = sphere_dgla()
    out = mc_augmentation_dictionary(s, GradedElement(), 3)
    assert out["is_mc"] and out["eps_is_dg"] and out["match"]
    assert out["phi_is_dg"] and out["triangle"]


def test_dictionary_sphere_x():
    s = sphere_dgla()
    out = mc_augmentation_dictionary(s, s.element("x"), 4)
    assert out["match"] and out["phi_is_dg"] and out["triangle"]


def test_dictionary_non_mc_witness():
    s = sphere_dgla()
    out = mc_augmentation_dictionary(s, s.element("x").scale(QQ(2)), 3)
    assert not out["is_mc"] and not out["eps_is_dg"] and out["match"]
    assert "witness" in out


def test_dictionary_iff_on_random_elements():
    import random
    rng = random.Random(11)
    g = f_xa_dgla(3)
    labels = [(d, lab) for d in g.space.degrees() if d == -1
              for lab in g.space.labels(d)]
    for _ in range(50):
        xi = GradedElement({k: QQ(rng.randrange(-2, 3)) for k in labels})
        out = mc_augmentation_dictionary(g, xi, 3)
        assert out["match"], xi


# --- minimal models ---------------------------------------------------------------


def test_minimal_model_zero_differential_returns_bracket():
    g = heisenberg_dgla()
    model = minimal_model(g)
    assert not model.has_higher_corrections()
    md = model.as_dgla()
    assert md.space.total_dim() == 3
    # structure constants carried over: some l2 value is nonzero
    assert model.l2


def test_minimal_model_acyclic_is_zero():
    s = sphere_dgla()
    model = minimal_model(s)
    assert model.homology_dims() == {}
    ab = abelian_dgla({1: ["u"], 0: ["v"]}, {"u": GradedElement({(0, "v"): QQ(1)})})
    model2 = minimal_model(ab)
    assert model2.homology_dims() == {}


def massey_four_dim():
    x = GradedElement({(2, "x"): QQ(1)})
    z = GradedElement({(4, "z"): QQ(1)})
    return dgla_from_table(
        {1: ["v"], 2: ["x"], 3: ["y"], 4: ["z"]},
        {("v", "v"): x, ("v", "y"): z},
        {"y": x},
        check="full")


def test_minimal_model_massey_corrections():
    g = massey_four_dim()
    model = minimal_model(g, 3, (0, 3))
    assert model.linear_part_is_zero()
    assert model.homology_dims() == {1: 1, 4: 1}
    # l2 vanishes ([v,v] = x is exact) but the homotopy correction survives
    assert not model.l2
    assert model.has_higher_corrections()
    vv = (1, 0)
    val = model.l3[(vv, vv, vv)]
    assert val == {(4, 0): QQ(1)}


def test_ce_of_disjoint_with_zero_has_no_faithful_window():
    # for algebras with negative degrees the per-degree CE cohomology only
    # carries stabilization flags, and at desk windows the g u 0 degrees
    # are honestly unstable (the completed complex splits off a ground
    # field factor, but no finite word bound sees it)
    from mclie.dgla import disjoint_product, zero_dgla
    line = abelian_dgla({0: ["a"]})
    gu0 = disjoint_product(line, zero_dgla(), 3, check="skip")
    table = ce_cohomology(gu0, 3, (-1, 1))
    assert all(cell["flag"] in ("stable", "unstable")
               for cell in table.values())
    assert table[0]["flag"] == "unstable"
    assert table[-1]["flag"] == "unstable"


def test_harrison_side_of_ground_field_splitting():
    # the dual, exactly checkable statement: L(A x Q) = L(A) u 0 for the
    # exterior line algebra A (the CE algebra of the abelian line)
    a = FiniteTableCdga({0: ["1"], 1: ["s"]},
                        {("s", "s"): GradedElement()}, "1",
                        augmentation={"1": QQ(1), "s": QQ(0)})
    report = harrison_product_comparison(a, q_cdga(), 3)
    assert report["bijective"], report


def test_minimal_model_failed_certificate_raises(monkeypatch):
    monkeypatch.setattr(MinimalModel, "linear_part_is_zero", lambda self: False)
    with pytest.raises(CertificateFailure):
        minimal_model(heisenberg_dgla())


@pytest.mark.parametrize("ref", ["heisenberg", "sphere", "f_xa:3", "f_xa:5", "g_S:3",
                                 "abelian:1:0", "harrison omega:1:3"])
def test_transfer_side_conditions_hold(ref):
    g = harrison(load_algebra(ref.split()[1]), 3).dgla if " " in ref else load_algebra(ref)
    assert minimal_model(g).quasi_iso_verified()


def test_minimal_model_rejects_a_broken_homotopy(monkeypatch):
    # with h = 0, dh + hd misses id - i p on u, whose boundary v = du is
    # exact: the verdict comes from the side conditions, not from a count
    g = abelian_dgla({1: ["u"], 0: ["v"]}, {"u": GradedElement({(0, "v"): QQ(1)})})
    assert minimal_model(g).quasi_iso_verified()
    monkeypatch.setattr(TransferData, "h", lambda self, elt: GradedElement())
    assert not MinimalModel(g).quasi_iso_verified()
    with pytest.raises(CertificateFailure, match="quasi-isomorphism"):
        minimal_model(g)


# the l2 and l3 tables of minimal_model, in dict order, recorded when
# TransferData.coords still returned dense coordinate lists
MODEL_DIGEST = "7f3bc6b4387af5b64deb17f3184fec69d530536d8218662bb01ecbf33a43461d"


def test_minimal_model_structure_digest():
    models = [minimal_model(heisenberg_dgla()), minimal_model(f_xa_dgla(3)),
              minimal_model(massey_four_dim(), 3, (0, 3))]
    tables = [([(k, list(v.items())) for k, v in m.l2.items()],
               [(k, list(v.items())) for k, v in m.l3.items()]) for m in models]
    assert [(len(l2), len(l3)) for l2, l3 in tables] == [(2, 0), (0, 0), (0, 1)]
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == MODEL_DIGEST


# the generator differentials of CE complexes truncated by length (bound 3)
# and by weight (bound 4, the free product built as compare_free_product
# builds it at --weight 5), and the generators and generator differentials
# of Harrison complexes, every term in order: recorded while CEComplex and
# HarrisonComplex each had their own d_I + d_II loop
DUAL_DIGEST = "35d1e2e5216c4b840b4951cb23f1f2bf98e98b528329d2ae78ca3340bb3bfcae"


def test_dual_structure_digest():
    def terms(dgens):
        return [(name, list(v.coeffs.items())) for name, v in dgens.items()]

    g, h = load_algebra("heisenberg"), load_algebra("abelian:1:0")
    prod = free_product_dgla(g, h, _product_truncation(g, h, 5), check="skip")
    out = [("length", ref, terms(ce_complex(load_algebra(ref), 3).algebra._dgens))
           for ref in ["heisenberg", "f_xa:3", "sphere"]]
    for ref, alg in [("heisenberg", g), ("abelian:2:0", load_algebra("abelian:2:0")),
                     ("heisenberg*abelian:1:0", prod)]:
        out.append(("weight", ref,
                    terms(ce_complex(alg, 4, truncate_by="weight").algebra._dgens)))
    for ref in ["qxq", "q_eps", "qk:3", "q_deg2", "omega:1:3"]:
        pres = harrison(load_algebra(ref), 3).presentation.pres
        out.append(("harrison", ref, pres.generators, terms(pres.dgens)))
    assert [len(entry[2]) for entry in out] == [3, 6, 2, 3, 2, 25, 1, 1, 2, 1, 6]
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == DUAL_DIGEST


def test_ce_drops_differentials_above_the_truncation():
    # s(a) and s(b) both have weight 2, above the weight-1 truncation, so
    # both are zero there, d(s(b)) = s(a) with them, and C(g) is Q
    b = GradedElement({(-1, "b"): QQ(1)})
    g = dgla_from_table({0: ["a"], -1: ["b"]}, {}, {"a": b}, weights={"a": 2, "b": 2})
    ce = ce_complex(g, 1, truncate_by="weight")
    assert ce.algebra.basis_items() == [(0, "1")]
    assert ce.algebra.cohomology_dims() == {0: 1}
    assert ce.weight_block_dims(1) == {}


def test_free_cdga_differential_beyond_the_truncation_is_invalid():
    # x has weight 1, inside the truncation, but d(x) = y names a term of
    # weight 2 that the truncated algebra does not have
    with pytest.raises(InvalidDifferential, match=r"^d\(x\) has the term y, "
                                                  r"beyond the weight-1 truncation$"):
        FreePolynomialCdga([("x", 0, 1), ("y", 1, 2)], 1,
                           {"x": GradedElement({(-1, "y"): QQ(1)})})


def test_transfer_rejects_dependent_splitting(monkeypatch):
    # a zero preimage of the boundary v = du leaves the degree-1 splitting
    # one vector long but of rank 0
    from mclie.linalg import GradedLinearMap
    g = abelian_dgla({1: ["u"], 0: ["v"]}, {"u": GradedElement({(0, "v"): QQ(1)})})
    TransferData(g)
    monkeypatch.setattr(GradedLinearMap, "solve", lambda self, elt: GradedElement())
    with pytest.raises(CertificateFailure, match="degree 1"):
        TransferData(g)


def test_cehar_has_no_assert_statements():
    # certificates must survive python -O
    import ast
    import mclie.cehar
    with open(mclie.cehar.__file__) as f:
        tree = ast.parse(f.read())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]
