import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelie_reference import FractionKernel, bch, tensor_of_element
from mclie.linalg import QQ, GradedElement, RowSpace
from mclie.freelie import (
    FreeLieTruncation,
    InvalidPresentation,
    LiePresentation,
    TruncationTooLarge,
    build_basis,
    free_product_presentation,
)


# --- independent oracle: span of left-normed brackets in the tensor algebra


def oracle_dims(degrees, m):
    """Per-(weight, degree) dimensions of the free graded Lie algebra,
    computed as the rank of all right-normed bracket words in the tensor
    algebra.  Independent of the Lyndon machinery."""
    k = len(degrees)
    dims = {}
    for w in range(1, m + 1):
        words = list(itertools.product(range(k), repeat=w))
        word_index = {wd: i for i, wd in enumerate(words)}
        by_degree = {}
        for br in itertools.product(range(k), repeat=w):
            # right-normed bracket [x_{i1},[x_{i2},[...,x_{iw}]]]
            vec = {br[-1:]: QQ(1)}
            deg_acc = degrees[br[-1]]
            for idx in reversed(br[:-1]):
                new = {}
                dg = degrees[idx]
                for wd, c in vec.items():
                    left = (idx,) + wd
                    new[left] = new.get(left, QQ(0)) + c
                    sign = QQ(-1) if (dg * deg_acc) % 2 else QQ(1)
                    right = wd + (idx,)
                    new[right] = new.get(right, QQ(0)) - sign * c
                vec = {kk: v for kk, v in new.items() if v}
                deg_acc += dg
            if not vec:
                continue
            by_degree.setdefault(deg_acc, []).append(
                {word_index[wd]: c for wd, c in vec.items()})
        for deg, vecs in by_degree.items():
            rs = RowSpace(len(words))
            for v in vecs:
                rs._add(v)
            if rs.dim():
                dims[(w, deg)] = rs.dim()
    return dims


@pytest.mark.parametrize("degrees", [
    (-1,), (0,), (1,), (2,),
    (-1, 0), (0, 0), (-1, -1), (1, 2), (0, 1),
    (-1, 0, 1), (0, 0, 0), (-1, -1, 2),
])
def test_basis_counts_against_tensor_oracle(degrees):
    m = 4
    gens = [("g%d" % i, d) for i, d in enumerate(degrees)]
    lie = build_basis(gens, m)
    assert lie.dims() == oracle_dims(degrees, m)


def test_sphere_shape_basis():
    lie = build_basis([("x", -1)], 2)
    assert lie.space.labels(-1) == ("x",)
    assert lie.space.labels(-2) == ("[x,x]",)
    assert lie.space.total_dim() == 2


def test_even_generator_square_vanishes():
    lie = build_basis([("a", 0)], 3)
    assert lie.space.total_dim() == 1
    a = lie.generator("a")
    assert lie.bracket(a, a).is_zero()


def test_degree_minus_one_slice_of_f():
    # declaring (a, x) puts the right-normed e_k = [a,[a,...,x]] in the basis
    lie = build_basis([("a", 0), ("x", -1)], 4)
    assert lie.space.labels(-1) == ("x", "[a,x]", "[a,[a,x]]", "[a,[a,[a,x]]]")
    # same dimensions under the other declaration order
    lie2 = build_basis([("x", -1), ("a", 0)], 4)
    assert len(lie2.space.labels(-1)) == 4


def test_bracket_examples():
    lie = build_basis([("a", 0), ("x", -1)], 4)
    x = lie.generator("x")
    a = lie.generator("a")
    # [x,x] is itself a basis element for odd x
    assert lie.bracket(x, x) == GradedElement({(-2, "[x,x]"): QQ(1)})
    assert lie.bracket(a, a).is_zero()
    e0 = x
    e1 = lie.bracket(a, x)
    # [e1, e0] = -(-1)^{(-1)(-1)} [e0, e1] = [e0, e1]
    assert lie.bracket(e1, e0) == lie.bracket(e0, e1)


def test_bracket_tensor_embedding_is_lie_map():
    lie = build_basis([("a", 0), ("x", -1)], 4)
    labels = [(d, lab) for d in lie.space.degrees() for lab in lie.space.labels(d)]
    for (d1, l1), (d2, l2) in itertools.product(labels, repeat=2):
        u = GradedElement({(d1, l1): QQ(1)})
        v = GradedElement({(d2, l2): QQ(1)})
        br = lie.bracket(u, v)
        tu = tensor_of_element(lie, u)
        tv = tensor_of_element(lie, v)
        sign = QQ(-1) if (d1 * d2) % 2 else QQ(1)
        comm = {}
        for w1, c1 in tu.items():
            for w2, c2 in tv.items():
                if lie.word_weight(w1 + w2) > lie.m:
                    continue
                comm[w1 + w2] = comm.get(w1 + w2, QQ(0)) + c1 * c2
                comm[w2 + w1] = comm.get(w2 + w1, QQ(0)) - sign * c1 * c2
        comm = {k: v for k, v in comm.items() if v}
        assert tensor_of_element(lie, br) == comm


def _basis_elements(lie):
    return [GradedElement({(d, lab): QQ(1)})
            for d in lie.space.degrees() for lab in lie.space.labels(d)]


def test_antisymmetry_and_jacobi_exhaustive():
    lie = build_basis([("a", 0), ("x", -1)], 4)
    elts = _basis_elements(lie)
    degs = [e.degree() for e in elts]
    for (i, u), (j, v) in itertools.product(enumerate(elts), repeat=2):
        sign = QQ(-1) if (degs[i] * degs[j]) % 2 else QQ(1)
        assert (lie.bracket(u, v) + lie.bracket(v, u).scale(sign)).is_zero()
    for (i, u), (j, v), (k, w) in itertools.product(enumerate(elts), repeat=3):
        # derivation form of graded Jacobi
        lhs = lie.bracket(u, lie.bracket(v, w))
        rhs = lie.bracket(lie.bracket(u, v), w) + \
            lie.bracket(v, lie.bracket(u, w)).scale(
                QQ(-1) if (degs[i] * degs[j]) % 2 else QQ(1))
        assert (lhs - rhs).is_zero()


def test_truncation_cap(monkeypatch):
    # one cap for both truncated free algebras, read when each is built
    import mclie.freelie
    from mclie.cdga import FreePolynomialCdga
    monkeypatch.setattr(mclie.freelie, "BASIS_SIZE_CAP", 10)
    with pytest.raises(TruncationTooLarge, match="cap 10$"):
        build_basis([("a", 0), ("b", 0), ("c", 0)], 6)
    # 1, x..x^6, y, y^2, y^3 and y^4: the cdga counts each list of new
    # monomials before building it and stops at the first that passes the
    # cap, not after all 28
    with pytest.raises(TruncationTooLarge, match="at least 11 elements \\(cap 10\\)$"):
        FreePolynomialCdga([("x", 0), ("y", 0)], 6, check="skip")


# --- quotients --------------------------------------------------------------


def _quotient_and_dgla(pres, m):
    """The weight-m quotient, which projects free elements, and the dgla
    materialized on it, which brackets them."""
    from mclie.dgla import DglaPresentation
    return pres.materialize(m), DglaPresentation(pres).materialize(m)


def test_quotient_abelianization():
    lie = build_basis([("a", 0), ("b", 0)], 3)
    rel = lie.bracket(lie.generator("a"), lie.generator("b"))
    pres = LiePresentation([("a", 0), ("b", 0)], [rel])
    q, g = _quotient_and_dgla(pres, 3)
    assert q.space.total_dim() == 2
    assert g.bracket(q.project(lie.generator("a")),
                     q.project(lie.generator("b"))).is_zero()


def test_quotient_heisenberg():
    free = build_basis([("a", 0), ("b", 0), ("c", 0)], 3)
    a, b, c = (free.generator(n) for n in "abc")
    rels = [free.bracket(a, c), free.bracket(b, c), free.bracket(a, b) - c]
    q, g = _quotient_and_dgla(LiePresentation([("a", 0), ("b", 0), ("c", 0)], rels), 3)
    assert q.space.total_dim() == 3
    pa, pb = q.project(a), q.project(b)
    z = g.bracket(pa, pb)
    assert not z.is_zero()
    # center: [a, [a,b]] = [b, [a,b]] = 0 in the quotient
    assert g.bracket(pa, z).is_zero()
    assert g.bracket(pb, z).is_zero()
    # the three projected elements are the hand-computed Heisenberg table
    assert q.project(c) == z


def test_quotient_no_relations_identity():
    pres = LiePresentation([("a", 0), ("x", -1)])
    q = pres.materialize(3)
    for d in q.space.degrees():
        for lab in q.space.labels(d):
            e = GradedElement({(d, lab): QQ(1)})
            assert q.project(e) == e


def test_quotient_bracket_compatible_with_projection():
    free = build_basis([("a", 0), ("b", 0), ("c", 0)], 3)
    a, b, c = (free.generator(n) for n in "abc")
    rels = [free.bracket(a, c), free.bracket(b, c), free.bracket(a, b) - c]
    q, g = _quotient_and_dgla(LiePresentation([("a", 0), ("b", 0), ("c", 0)], rels), 3)
    labels = [(d, lab) for d in free.space.degrees() for lab in free.space.labels(d)]
    for (d1, l1), (d2, l2) in itertools.product(labels, repeat=2):
        u = GradedElement({(d1, l1): QQ(1)})
        v = GradedElement({(d2, l2): QQ(1)})
        assert q.project(free.bracket(u, v)) == g.bracket(q.project(u), q.project(v))


# --- free products ----------------------------------------------------------


def test_free_product_of_abelian_lines():
    pres = free_product_presentation(LiePresentation([("a", 0)]),
                                     LiePresentation([("b", 0)]))
    q = pres.materialize(2)
    dims = {}
    for d in q.space.degrees():
        for lab in q.space.labels(d):
            w = q.weight_of_label[lab]
            dims[w] = dims.get(w, 0) + 1
    assert dims == {1: 2, 2: 1}


def test_free_product_with_zero():
    pres = free_product_presentation(LiePresentation([("a", 0)]), LiePresentation([]))
    q = pres.materialize(3)
    assert q.space.total_dim() == 1


def test_free_product_sphere_with_line_degree_slice():
    pres = free_product_presentation(LiePresentation([("a", 0)]),
                                     LiePresentation([("x", -1)]))
    q = pres.materialize(4)
    assert len(q.space.labels(-1)) == 4


def test_free_product_weight_filtered():
    free = build_basis([("a", 0), ("b", 0), ("c", 0)], 3)
    a, b, c = (free.generator(n) for n in "abc")
    rels = [free.bracket(a, c), free.bracket(b, c), free.bracket(a, b) - c]
    pres = free_product_presentation(
        LiePresentation([("a", 0), ("b", 0), ("c", 0)], rels), LiePresentation([("z", 0)]))
    q = pres.materialize(3)
    for d in q.space.degrees():
        for lab in q.space.labels(d):
            w = q.weight_of_label[lab]
            img = q.project(GradedElement({(d, lab): QQ(1)}))
            for (_, l2) in img.coeffs:
                assert q.weight_of_label[l2] >= w


# --- tensor exponentials ----------------------------------------------------


def test_bch_classical_coefficients():
    lie = build_basis([("a", 0), ("b", 0)], 3)
    a, b = lie.generator("a"), lie.generator("b")
    z = bch(lie, a, b)
    ab = lie.bracket(a, b)
    expected = a + b + ab.scale(QQ(1, 2)) \
        + lie.bracket(a, ab).scale(QQ(1, 12)) \
        + lie.bracket(ab, b).scale(QQ(1, 12))
    assert z == expected


def test_bch_with_zero():
    lie = build_basis([("a", 0), ("b", 0)], 3)
    a = lie.generator("a")
    assert bch(lie, a, GradedElement()) == a
    assert bch(lie, GradedElement(), a) == a


# --- the Hall-set kernel against a Fraction reference -----------------------


# free truncations on their own: an odd degree-3 generator beside odd
# squares, generator weights above 1, and the f_xa alphabet in the other
# declaration order, deeper than any builtin case
FREE_CASES = {
    "p,q,r in degrees -1,1,3 at m=6": ([("p", -1), ("q", 1), ("r", 3)], 6),
    "weights 1,2,3 at m=8": ([("a", -1, 1), ("b", 0, 2), ("c", 1, 3)], 8),
    "x,a at m=9": ([("x", -1), ("a", 0)], 9),
}


def _free_truncation(case):
    """The free truncation that materializing the named algebra builds."""
    if case in FREE_CASES:
        return FreeLieTruncation(*FREE_CASES[case])
    from mclie.cehar import harrison
    from mclie.defs import build_builtin
    from mclie.dgla import free_product_dgla, presentation_of
    if case == "abelian:2:0 * abelian:1:0":
        g = free_product_dgla(build_builtin("abelian:2:0"),
                              build_builtin("abelian:1:0"), 4)
    elif case == "harrison omega:1:3":
        g = harrison(build_builtin("omega:1:3"), 4).dgla
    else:
        g = build_builtin(case)
    return presentation_of(g).pres.materialize(g.weight_bound).free


def _items(elt):
    return list(elt.coeffs.items())


@pytest.mark.parametrize("case", ["f_xa:6", "g_S:3", "heisenberg",
                                  "abelian:2:0 * abelian:1:0",
                                  "harrison omega:1:3", *FREE_CASES])
def test_integer_kernel_matches_fraction_reference(case):
    lie = _free_truncation(case)
    ref = FractionKernel(lie)
    labels = [lab for n in lie.space.degrees() for lab in lie.space.labels(n)]
    assert len(labels) > 1
    for lab in labels:
        tree = lie.tree_of_label[lab]
        assert list(lie.tensor_expand(tree).items()) == \
            list(ref.tensor_expand(tree).items())
        assert lie.tree_weight(tree) == ref.weight(tree)
        assert lie.tree_degree(tree) == ref.degree(tree)
    nonzero = 0
    for l1 in labels:
        for l2 in labels:
            got = lie.bracket_labels(l1, l2)
            assert _items(got) == _items(ref.bracket_labels(l1, l2)), (l1, l2)
            assert all(type(c) is Fraction for c in got.coeffs.values())
            nonzero += not got.is_zero()
    assert nonzero
    # Fraction input (the bch path): rewrite a scaled basis element back
    for lab in labels:
        elt = lie.element_of_tree(lie.tree_of_label[lab]).scale(QQ(-2, 3))
        tensor = tensor_of_element(lie, elt)
        assert all(type(c) is Fraction for c in tensor.values())
        got = lie.rewrite_tensor(tensor)
        assert _items(got) == _items(ref.rewrite_tensor(tensor)) == _items(elt)
        assert all(type(c) is Fraction for c in got.coeffs.values())


JACOBI_LIE = FreeLieTruncation([("x", -1), ("a", 0), ("y", 1)], 7)
# every basis element of weight <= 4, squares among them
JACOBI_POOL = [(d, lab) for d in JACOBI_LIE.space.degrees()
               for lab in JACOBI_LIE.space.labels(d)
               if JACOBI_LIE.weight_of_label[lab] <= 4]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.sampled_from(JACOBI_POOL)] * 3))
def test_hall_bracket_is_graded_lie(triple):
    lie = JACOBI_LIE
    (du, lu), (dv, lv), (dw, lw) = triple
    u, v, w = (GradedElement({key: QQ(1)}) for key in triple)
    sign_uv = QQ(-1) if du * dv % 2 else QQ(1)
    assert (lie.bracket(u, v) + lie.bracket(v, u).scale(sign_uv)).is_zero()
    # derivation form of graded Jacobi
    lhs = lie.bracket(u, lie.bracket(v, w))
    rhs = lie.bracket(lie.bracket(u, v), w) + \
        lie.bracket(v, lie.bracket(u, w)).scale(sign_uv)
    assert (lhs - rhs).is_zero()


def test_hall_pool_has_squares():
    squares = {JACOBI_LIE.label_of_tree[t] for t in JACOBI_LIE._square_words.values()}
    assert squares & {lab for _, lab in JACOBI_POOL} == \
        {"[x,x]", "[y,y]", "[[x,a],[x,a]]", "[[a,y],[a,y]]"}


@pytest.mark.parametrize("t", ["x", "[a,x]"])
def test_square_bracketed_with_its_root_vanishes(t):
    # [[t,t],t] = 0 for odd t: the base case of the square rule
    lie = build_basis([("a", 0), ("x", -1)], 6)
    sq = "[%s,%s]" % (t, t)
    assert lie.bracket_labels(sq, t).is_zero()
    assert lie.bracket_labels(t, sq).is_zero()
    assert not lie.bracket_labels(t, t).is_zero()


def test_bracket_label_that_is_a_generator_name_is_refused():
    with pytest.raises(InvalidPresentation, match=r"label \[a,b\]"):
        FreeLieTruncation([("a", 0), ("b", 0), ("[a,b]", 0)], 2)
    # below the bracket's weight there is nothing to confuse
    assert FreeLieTruncation([("a", 0), ("b", 0), ("[a,b]", 0)], 1).space.total_dim() == 3


def test_square_halves_odd_int_exactly():
    lie = FreeLieTruncation([("x", -1)], 2)
    # xx = 1/2 [x,x] in the tensor algebra
    got = lie.rewrite_tensor({(0, 0): 1})
    assert _items(got) == [((-2, "[x,x]"), QQ(1, 2))]
    assert all(type(c) is Fraction for c in got.coeffs.values())
    got = lie.rewrite_tensor({(0, 0): 4})
    assert _items(got) == [((-2, "[x,x]"), QQ(2))]
    assert all(type(c) is Fraction for c in got.coeffs.values())


# --- the quotient's sparse elimination against a dense reference


class DenseRowSpace:
    """The dense RowSpace that QuotientLie used to saturate on: list rows
    in reduced row echelon form, every reduction a scan of every row."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            if v[pc]:
                f = v[pc]
                for j in range(pc, len(v)):
                    if row[j]:
                        v[j] -= f * row[j]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        pc = next((j for j in range(self.ncols) if v[j]), None)
        if pc is None:
            return False
        f = v[pc]
        if f != 1:
            v = [x / f for x in v]
        for row in self.rows:
            if row[pc]:
                g = row[pc]
                for j in range(pc, len(v)):
                    if v[j]:
                        row[j] -= g * v[j]
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pc:
            at += 1
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True


def _dense_projection(q):
    """Saturate q's relations into dense row spaces on q's own column order
    and return (the row spaces, the projection they define)."""
    lie, cols, idx = q.free, q._columns, q._colindex

    def vec(elt, deg):
        v = [QQ(0)] * len(cols[deg])
        for (_, lab), c in elt.coeffs.items():
            v[idx[deg][lab]] = c
        return v

    ideal = {deg: DenseRowSpace(len(c)) for deg, c in cols.items()}
    queue = [r for r in q.presentation.relations
             if not r.is_zero() and ideal[r.degree()].add(vec(r, r.degree()))]
    gens = [lie.generator(n) for n in lie.gen_names]
    while queue:
        elt = queue.pop()
        for g in gens:
            nxt = lie.bracket(g, elt)
            if not nxt.is_zero() and ideal[nxt.degree()].add(vec(nxt, nxt.degree())):
                queue.append(nxt)

    def project(elt):
        out = {}
        for deg in sorted(elt.degrees()):
            v = ideal[deg].reduce(vec(elt.homogeneous_part(deg), deg))
            out.update({(deg, cols[deg][i]): c for i, c in enumerate(v) if c})
        return out

    return ideal, project


def test_quotient_projection_matches_dense_reference():
    import random

    from mclie.defs import build_builtin
    from mclie.dgla import free_product_dgla, presentation_of
    g = free_product_dgla(build_builtin("heisenberg"), build_builtin("abelian:1:0"), 5)
    q = presentation_of(g).pres.materialize(5)
    ideal, project = _dense_projection(q)
    assert sum(len(rs.rows) for rs in ideal.values()) > 0
    for deg, rs in ideal.items():
        assert q._ideal[deg].pivots == rs.pivots
        assert [q._ideal[deg]._rows[pc] for pc in rs.pivots] == \
            [{j: x for j, x in enumerate(row) if x} for row in rs.rows]
    elements = [e for n in q.free.space.degrees() for e in q.free.space.basis_elements(n)]
    rng = random.Random(5)
    for _ in range(200):
        picked = rng.sample(elements, rng.randint(1, 6))
        elements.append(GradedElement({k: QQ(rng.randint(-5, 5), rng.randint(1, 4))
                                       for e in picked for k in e.coeffs}))
    reduced = 0
    for e in elements:
        got = q.project(e)
        want = project(e)
        assert _items(got) == list(want.items())
        assert all(type(c) is Fraction for c in got.coeffs.values())
        reduced += _items(got) != _items(e)
    assert reduced > 100
