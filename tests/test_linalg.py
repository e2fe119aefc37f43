import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclie.linalg import (
    QQ,
    ChainComplex,
    Coordinates,
    FiniteCommutativeAlgebra,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    NonSplitAlgebra,
    homology,
    idempotents,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
)


def two_term_identity():
    space = GradedVectorSpace({1: ["a"], 0: ["b"]})
    d = GradedLinearMap(space, space, -1, {1: [[QQ(1)]]})
    return ChainComplex(space, d)


def test_homology_acyclic_identity():
    h = homology(two_term_identity())
    assert h.dim(0) == 0 and h.dim(1) == 0


def test_homology_zero_differential():
    space = GradedVectorSpace({0: ["a"], 1: ["b", "c"], 2: ["d"]})
    d = GradedLinearMap(space, space, -1, {})
    h = homology(ChainComplex(space, d))
    assert [h.dim(n) for n in (0, 1, 2)] == [1, 2, 1]
    # representatives are honest cycles spanning everything
    assert len(h.representatives[1]) == 2


def test_homology_sphere_complex():
    # x in degree -1, [x,x] in degree -2, dx = -1/2 [x,x]; rank computation
    # by hand: d block is the 1x1 matrix (-1/2), rank 1, so H = 0 everywhere.
    space = GradedVectorSpace({-1: ["x"], -2: ["[x,x]"]})
    d = GradedLinearMap(space, space, -1, {-1: [[QQ(-1, 2)]]})
    h = homology(ChainComplex(space, d))
    assert h.dim(-1) == 0 and h.dim(-2) == 0


def test_d_squared_enforced():
    space = GradedVectorSpace({2: ["a"], 1: ["b"], 0: ["c"]})
    bad = GradedLinearMap(space, space, -1, {2: [[QQ(1)]], 1: [[QQ(1)]]})
    with pytest.raises(ValueError):
        ChainComplex(space, bad)


def test_solve_identity_and_zero():
    space = GradedVectorSpace({0: ["a", "b"]})
    ident = GradedLinearMap(space, space, 0,
                            {0: [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]})
    v = GradedElement({(0, "a"): QQ(2), (0, "b"): QQ(-3)})
    assert ident.solve(v) == v
    zero = GradedLinearMap(space, space, 0, {})
    assert zero.solve(v) is None
    assert zero.solve(GradedElement()) == GradedElement()


def test_solve_pivot_minimal():
    # 1x2 map (1 1), target 1 -> (1, 0) under the echelon rule
    src = GradedVectorSpace({0: ["a", "b"]})
    tgt = GradedVectorSpace({0: ["t"]})
    m = GradedLinearMap(src, tgt, 0, {0: [[QQ(1), QQ(1)]]})
    x = m.solve(GradedElement({(0, "t"): QQ(1)}))
    assert x == GradedElement({(0, "a"): QQ(1)})


def test_rank_nullity_random_blocks():
    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[QQ(rng.randrange(-3, 4)) for _ in range(cols)] for _ in range(rows)]
        assert rank(m, cols) + len(kernel_basis(m, cols)) == cols


def test_rref_deterministic():
    m = [[QQ(0), QQ(2)], [QQ(1), QQ(1)]]
    red, piv = rref(m, 2)
    assert piv == [0, 1]
    assert red == [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]


def test_solve_matrix_inconsistent():
    assert solve_matrix([[QQ(0)]], 1, [QQ(1)]) is None


def test_coordinates_equal_solve_matrix():
    # dependent, zero and repeated vectors, empty lists, and right-hand
    # sides inside and outside the span
    rng = random.Random(11)
    outside = 0
    for trial in range(300):
        n, m = trial % 5, trial // 5 % 6
        vecs = [[QQ(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            vecs[2] = [a - 2 * b for a, b in zip(vecs[0], vecs[1])]
        if m and rng.random() < 0.3:
            vecs[rng.randrange(m)] = [QQ(0)] * n
        if m >= 2 and rng.random() < 0.3:
            vecs[-1] = list(vecs[0])
        matrix = [[v[i] for v in vecs] for i in range(n)]
        coords = Coordinates(vecs, n)
        assert coords.rank() == rank(vecs, n) == rank(matrix, m)
        for _ in range(4):
            if rng.random() < 0.5:
                b = [QQ(rng.randrange(-3, 4)) for _ in range(n)]
            else:
                cs = [QQ(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in vecs]
                b = [sum((c * v[i] for c, v in zip(cs, vecs)), QQ(0))
                     for i in range(n)]
            x = coords.coords(b)
            assert x == solve_matrix(matrix, m, b)
            if x is None:
                outside += 1
            else:
                assert [sum((c * v[i] for c, v in zip(x, vecs)), QQ(0))
                        for i in range(n)] == b
    assert outside > 20


@settings(max_examples=25, deadline=None)
@given(st.permutations(["a", "b", "c", "d"]), st.integers(0, 2 ** 30))
def test_homology_invariant_under_basis_permutation(perm, seed):
    # permute labels of a random complex, recompute, compare dimensions
    rng = random.Random(seed)
    deg1 = ["p", "q", "r"]
    deg0 = list(perm)
    block = [[QQ(rng.randrange(-2, 3)) for _ in deg1] for _ in deg0]
    space = GradedVectorSpace({1: deg1, 0: deg0})
    d = GradedLinearMap(space, space, -1, {1: block})
    h = homology(ChainComplex(space, d))

    order = sorted(range(len(deg0)), key=lambda i: deg0[i])
    space2 = GradedVectorSpace({1: deg1, 0: [deg0[i] for i in order]})
    block2 = [block[i] for i in order]
    d2 = GradedLinearMap(space2, space2, -1, {1: block2})
    h2 = homology(ChainComplex(space2, d2))
    assert h.dims == h2.dims


def product_of_fields(k):
    labels = ["e%d" % i for i in range(k)]
    table = {}
    for i in range(k):
        for j in range(k):
            table[(i, j)] = [QQ(1) if (i == j == t) else QQ(0) for t in range(k)]
    unit = [QQ(1)] * k
    return FiniteCommutativeAlgebra(labels, table, unit)


def test_idempotents_product_of_three_fields():
    a = product_of_fields(3)
    idems = idempotents(a)
    assert len(idems) == 3
    coordinate = sorted([[QQ(1) if i == t else QQ(0) for t in range(3)] for i in range(3)])
    assert idems == coordinate


def test_idempotents_ground_field():
    a = product_of_fields(1)
    assert idempotents(a) == [[QQ(1)]]


def test_idempotents_dual_numbers_not_split():
    # Q[eps]/(eps^2): multiplication by eps is nilpotent, not semisimple
    table = {(0, 0): [QQ(1), QQ(0)], (0, 1): [QQ(0), QQ(1)],
             (1, 0): [QQ(0), QQ(1)], (1, 1): [QQ(0), QQ(0)]}
    a = FiniteCommutativeAlgebra(["1", "eps"], table, [QQ(1), QQ(0)])
    with pytest.raises(NonSplitAlgebra):
        idempotents(a)


def test_idempotents_scrambled_basis():
    # product of fields in a scrambled basis still splits exactly
    k = 3
    a = product_of_fields(k)
    # change of basis: f0 = e0+e1+e2 (unit), f1 = e1+2e2, f2 = e2
    p = [[QQ(1), QQ(0), QQ(0)], [QQ(1), QQ(1), QQ(0)], [QQ(1), QQ(2), QQ(1)]]
    # columns of p give new basis vectors in old coordinates
    def to_old(v):
        out = [QQ(0)] * k
        for j, c in enumerate(v):
            for t in range(k):
                out[t] += c * p[t][j]
        return out
    import itertools
    from mclie.linalg import solve_matrix as solve
    table = {}
    for i, j in itertools.product(range(k), repeat=2):
        fi = to_old([QQ(1) if t == i else QQ(0) for t in range(k)])
        fj = to_old([QQ(1) if t == j else QQ(0) for t in range(k)])
        prod_old = a.multiply(fi, fj)
        coords = solve([[p[r][c] for c in range(k)] for r in range(k)], k, prod_old)
        table[(i, j)] = coords
    unit_coords = solve([[p[r][c] for c in range(k)] for r in range(k)], k, [QQ(1)] * k)
    b = FiniteCommutativeAlgebra(["f0", "f1", "f2"], table, unit_coords)
    idems = idempotents(b)
    assert len(idems) == 3
    for e in idems:
        assert b.multiply(e, e) == e
