import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    FractionRowSpace,
    dense_block,
    dense_kernel,
    dense_product,
    dense_rank,
    dense_rref,
    dense_solve,
    map_from_blocks,
    rational_roots_by_divisors,
)
import split_reference
from test_cli import FREE_PRODUCT_PAIRS
from mclie.cdga import Cdga
from mclie.linalg import (
    QQ,
    CertificateFailure,
    Coordinates,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    HomologyReport,
    NonSplitAlgebra,
    RowSpace,
    _cycles,
    _rational_roots,
    homology,
    idempotents,
    rref,
    solve_matrix,
)


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def dense(vec, width):
    return [vec.get(j, QQ(0)) for j in range(width)]


def two_term_identity():
    space = GradedVectorSpace({1: ["a"], 0: ["b"]})
    return space, map_from_blocks(space, space, -1, {1: [[QQ(1)]]})


def test_homology_acyclic_identity():
    h = homology(*two_term_identity())
    assert h.dim(0) == 0 and h.dim(1) == 0


def test_homology_zero_differential():
    space = GradedVectorSpace({0: ["a"], 1: ["b", "c"], 2: ["d"]})
    d = GradedLinearMap(space, space, -1)
    h = homology(space, d)
    assert [h.dim(n) for n in (0, 1, 2)] == [1, 2, 1]
    # representatives are honest cycles spanning everything
    assert len(h.representatives(1)) == 2


def test_homology_sphere_complex():
    # x in degree -1, [x,x] in degree -2, dx = -1/2 [x,x]; rank computation
    # by hand: d block is the 1x1 matrix (-1/2), rank 1, so H = 0 everywhere.
    space = GradedVectorSpace({-1: ["x"], -2: ["[x,x]"]})
    d = map_from_blocks(space, space, -1, {-1: [[QQ(-1, 2)]]})
    h = homology(space, d)
    assert h.dim(-1) == 0 and h.dim(-2) == 0


def test_d_squared_enforced():
    # d(a) = b and d(b) = c: the boundary b of degree 1 is not a cycle, so
    # homology's certificate fails there
    space = GradedVectorSpace({2: ["a"], 1: ["b"], 0: ["c"]})
    bad = map_from_blocks(space, space, -1, {2: [[QQ(1)]], 1: [[QQ(1)]]})
    with pytest.raises(CertificateFailure, match="in degree 1$"):
        homology(space, bad)
    with pytest.raises(ValueError, match="shift -1"):
        homology(space, GradedLinearMap(space, space, 0))


def test_solve_identity_and_zero():
    space = GradedVectorSpace({0: ["a", "b"]})
    ident = map_from_blocks(space, space, 0,
                            {0: [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]})
    v = GradedElement({(0, "a"): QQ(2), (0, "b"): QQ(-3)})
    assert ident.solve(v) == v
    zero = GradedLinearMap(space, space, 0)
    assert zero.solve(v) is None
    assert zero.solve(GradedElement()) == GradedElement()


def test_solve_pivot_minimal():
    # 1x2 map (1 1), target 1 -> (1, 0) under the echelon rule
    src = GradedVectorSpace({0: ["a", "b"]})
    tgt = GradedVectorSpace({0: ["t"]})
    m = map_from_blocks(src, tgt, 0, {0: [[QQ(1), QQ(1)]]})
    x = m.solve(GradedElement({(0, "t"): QQ(1)}))
    assert x == GradedElement({(0, "a"): QQ(1)})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 5), st.integers(0, 5))
def test_cycles_match_dense_kernel(seed, rows, cols):
    # the kernel of d on degree 1 with a random dense block: the same
    # vectors as the dense reference, and rank + nullity = cols
    rng = random.Random(seed)
    block = [[QQ(rng.randrange(-3, 4), rng.choice([1, 1, 2])) if rng.random() < 0.6
              else QQ(0) for _ in range(cols)] for _ in range(rows)]
    space = GradedVectorSpace({1: ["c%d" % j for j in range(cols)],
                               0: ["r%d" % i for i in range(rows)]})
    ker = _cycles(map_from_blocks(space, space, -1, {1: block}), 1)
    assert [dense(v, cols) for v in ker] == dense_kernel(block, cols)
    assert dense_rank(block, cols) + len(ker) == cols


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
        coords = Coordinates([sparse(v) for v in vecs], n)
        assert coords.rank() == dense_rank(vecs, n) == dense_rank(matrix, m)
        for _ in range(4):
            if rng.random() < 0.5:
                b = [QQ(rng.randrange(-3, 4)) for _ in range(n)]
            else:
                cs = [QQ(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in vecs]
                b = [sum((c * v[i] for c, v in zip(cs, vecs)), QQ(0))
                     for i in range(n)]
            x = coords.coords(sparse(b))
            want = dense_solve(matrix, m, b)
            assert want == solve_matrix(matrix, m, b)
            if x is None:
                assert want is None
                outside += 1
            else:
                assert list(x.items()) == list(sparse(want).items())
                assert [sum((c * vecs[j][i] for j, c in x.items()), QQ(0))
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
    h = homology(space, map_from_blocks(space, space, -1, {1: block}))

    order = sorted(range(len(deg0)), key=lambda i: deg0[i])
    space2 = GradedVectorSpace({1: deg1, 0: [deg0[i] for i in order]})
    block2 = [block[i] for i in order]
    h2 = homology(space2, map_from_blocks(space2, space2, -1, {1: block2}))
    assert h.dims == h2.dims


def degree0_algebra(labels, table, unit):
    """The commutative algebra with table[(i, j)] the coordinates of
    e_i * e_j and unit the coordinates of 1, as a Cdga in degree 0."""
    space = GradedVectorSpace({0: labels})
    return Cdga(space, None,
                lambda d1, l1, d2, l2: space.from_vector(
                    sparse(table[(space.index(0, l1), space.index(0, l2))]), 0),
                space.from_vector(sparse(unit), 0), check="full")


def dense_multiply(a, u, v):
    """u * v in a degree-0 algebra, on coordinate lists."""
    prod = a.space.to_vector(a.multiply(a.space.from_vector(sparse(u), 0),
                                        a.space.from_vector(sparse(v), 0)), 0)
    return dense(prod, a.space.dim(0))


def product_of_fields(k):
    labels = ["e%d" % i for i in range(k)]
    table = {}
    for i in range(k):
        for j in range(k):
            table[(i, j)] = [QQ(1) if (i == j == t) else QQ(0) for t in range(k)]
    unit = [QQ(1)] * k
    return degree0_algebra(labels, table, unit)


def test_idempotents_product_of_three_fields():
    a = product_of_fields(3)
    idems = idempotents(a)
    assert len(idems) == 3
    coordinate = sorted([[QQ(1) if i == t else QQ(0) for t in range(3)] for i in range(3)])
    assert [dense(e, 3) for e in idems] == coordinate
    assert idems == [{2: QQ(1)}, {1: QQ(1)}, {0: QQ(1)}]


def test_idempotents_ground_field():
    a = product_of_fields(1)
    assert idempotents(a) == [{0: QQ(1)}]


def test_idempotents_refuse_the_zero_algebra():
    # 1 = 0: the unit the splitting starts from is no idempotent to return
    with pytest.raises(NonSplitAlgebra):
        idempotents(degree0_algebra([], {}, []))


def test_idempotents_dual_numbers_not_split():
    # Q[eps]/(eps^2): multiplication by eps is nilpotent, not semisimple
    table = {(0, 0): [QQ(1), QQ(0)], (0, 1): [QQ(0), QQ(1)],
             (1, 0): [QQ(0), QQ(1)], (1, 1): [QQ(0), QQ(0)]}
    a = degree0_algebra(["1", "eps"], table, [QQ(1), QQ(0)])
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
        prod_old = dense_multiply(a, fi, fj)
        coords = solve([[p[r][c] for c in range(k)] for r in range(k)], k, prod_old)
        table[(i, j)] = coords
    unit_coords = solve([[p[r][c] for c in range(k)] for r in range(k)], k, [QQ(1)] * k)
    b = degree0_algebra(["f0", "f1", "f2"], table, unit_coords)
    idems = idempotents(b)
    assert len(idems) == 3
    assert [dense(e, k) for e in idems] == sorted(dense(e, k) for e in idems)
    for e in idems:
        assert list(e) == sorted(e)
        assert dense_multiply(b, dense(e, k), dense(e, k)) == dense(e, k)


# the two-dimensional summands that are not split: Q[eps]/eps^2 and
# Q[t]/(t^2 - 2), as the products of their second basis element with itself
NON_SPLIT = {"eps": [QQ(0), QQ(0)], "sqrt2": [QQ(2), QQ(0)]}


def _scrambled_algebra(rng, k, extra):
    """Q^k, times the summand NON_SPLIT[extra] when extra is given, in the
    basis of the columns of a random invertible matrix: a product L U of
    unitriangular matrices with small int entries, its columns permuted and
    scaled by fractions with numerators and denominators up to 10^25."""
    n = k + 2 * bool(extra)
    old = {(i, j): [QQ(0)] * n for i in range(n) for j in range(n)}
    for i in range(k):
        old[(i, i)][i] = QQ(1)
    unit = [QQ(1)] * k + [QQ(1), QQ(0)] * bool(extra)
    if extra:
        # the summand's unit is e_k, and e_(k+1) is eps or t
        old[(k, k)][k] = old[(k, k + 1)][k + 1] = old[(k + 1, k)][k + 1] = QQ(1)
        old[(k + 1, k + 1)][k:] = NON_SPLIT[extra]

    def small():
        return QQ(rng.randrange(-2, 3)) if rng.random() < 0.6 else QQ(0)

    low = [[QQ(int(i == j)) if i <= j else small() for j in range(n)] for i in range(n)]
    up = [[QQ(int(i == j)) if i >= j else small() for j in range(n)] for i in range(n)]
    m = dense_product(low, up, n, n)
    perm = rng.sample(range(n), n)
    scale = [QQ(rng.randrange(-10 ** 25, 10 ** 25) or 1, rng.randrange(1, 10 ** 25))
             for _ in range(n)]
    p = [[m[t][c] * s for c, s in zip(perm, scale)] for t in range(n)]

    def old_product(u, v):
        out = [QQ(0)] * n
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                if x and y:
                    for t, c in enumerate(old[(i, j)]):
                        out[t] += x * y * c
        return out

    cols = [[p[t][j] for t in range(n)] for j in range(n)]
    table = {(i, j): dense_solve(p, n, old_product(cols[i], cols[j]))
             for i in range(n) for j in range(n)}
    return degree0_algebra(["f%d" % i for i in range(n)], table, dense_solve(p, n, unit))


def _split_outcome(split, a):
    try:
        return split(a)
    except NonSplitAlgebra as e:
        return "NonSplitAlgebra", str(e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6),
       st.sampled_from([None, None, "eps", "sqrt2"]))
def test_idempotents_match_eigenspace_reference(seed, k, extra):
    # minimal polynomials and Lagrange idempotents against the simultaneous
    # eigenspace splitting by characteristic polynomials: the same sorted
    # idempotents, or the same refusal
    a = _scrambled_algebra(random.Random(seed), k, extra)
    got = _split_outcome(idempotents, a)
    assert got == _split_outcome(split_reference.idempotents, a)
    if extra:
        assert got == ("NonSplitAlgebra",
                       "multiplication operator has irrational or non-semisimple spectrum")
    else:
        assert len(got) == k


# --- sparse-column GradedLinearMap against dense references -------------------


def _random_space(rng, prefix):
    # some degrees empty (dropped by GradedVectorSpace), dims 0..3
    return GradedVectorSpace({n: ["%s%d.%d" % (prefix, n, i)
                                  for i in range(rng.randint(0, 3))]
                              for n in range(-1, 3)})


def _random_blocks(rng, source, target, shift):
    """Dense blocks with zero columns, zero blocks and absent degrees."""
    blocks = {}
    for n in source.degrees():
        kind = rng.random()
        if kind < 0.15:
            continue
        rows, cols = target.dim(n + shift), source.dim(n)
        b = [[QQ(0)] * cols for _ in range(rows)]
        if kind > 0.3:
            for j in range(cols):
                if rng.random() < 0.3:
                    continue
                for i in range(rows):
                    if rng.random() < 0.5:
                        b[i][j] = QQ(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
        blocks[n] = b
    return blocks


def _dense_block(blocks, source, target, shift, n):
    b = blocks.get(n)
    if b is None or not any(any(row) for row in b):
        return [[QQ(0)] * source.dim(n) for _ in range(target.dim(n + shift))]
    return b


def _dense_apply(blocks, source, target, shift, elt):
    """apply on dense blocks, summing with GradedElement addition."""
    out = GradedElement()
    for (n, lab), c in elt.coeffs.items():
        b = blocks.get(n)
        if b is None or not any(any(row) for row in b):
            continue
        j = source.index(n, lab)
        tlabels = target.labels(n + shift)
        out = out + GradedElement({(n + shift, tlabels[i]): b[i][j] * c
                                   for i in range(len(tlabels)) if b[i][j]})
    return out


def _random_element(rng, space):
    items = [(n, lab) for n in space.degrees() for lab in space.labels(n)]
    rng.shuffle(items)
    return GradedElement({k: QQ(rng.randint(-4, 4), rng.randint(1, 3))
                          for k in items[:rng.randint(0, len(items))]})


def test_power_and_image_match_dense_reference():
    # power(k) against k - 1 dense products, and image(n) against the dense
    # rref of block n's columns, on maps with zero and absent blocks
    rng = random.Random(20261020)
    for _ in range(100):
        u, v = _random_space(rng, "u"), _random_space(rng, "v")
        shift = rng.choice([-1, 0, 1])
        fb = _random_blocks(rng, u, v, shift)
        f = map_from_blocks(u, v, shift, fb)
        for n in range(-3, 5):
            width = v.dim(n + shift)
            block = _dense_block(fb, u, v, shift, n)
            columns = [[row[j] for row in block] for j in range(u.dim(n))]
            assert [dense(x, width) for x in f.image(n)] == dense_rref(columns, width)[0]
        ub = _random_blocks(rng, u, u, 0)
        g = map_from_blocks(u, u, 0, ub)
        for k in range(1, 10):
            power = g.power(k)
            assert (power.source, power.target, power.shift) == (u, u, 0)
            for n in range(-3, 5):
                want = _dense_block(ub, u, u, 0, n)
                for _ in range(k - 1):
                    want = dense_product(_dense_block(ub, u, u, 0, n), want, u.dim(n), u.dim(n))
                assert dense_block(power, n) == want


def _polynomial_cases(rng, count):
    """Nonzero polynomials, coefficients highest first: half of them
    products of rational roots and quadratics, half random coefficient
    lists."""
    def times(a, b):
        out = [QQ(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for t in range(count):
        if t % 2:
            p = [QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.6:
                    p = times(p, [QQ(1), -QQ(rng.randint(-9, 9), rng.randint(1, 6))])
                else:
                    p = times(p, [QQ(1), QQ(rng.randint(-5, 5)), QQ(rng.randint(-5, 5))])
        else:
            p = [QQ(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
            if not any(p):
                p[-1] = QQ(1)
        yield p


def test_rational_roots_match_divisor_reference():
    for p in _polynomial_cases(random.Random(20261021), 3000):
        assert _rational_roots(p) == rational_roots_by_divisors(p), p


def test_rational_roots_of_a_long_constant_need_no_divisors():
    # (x - 1)(x - 10^23) and (10^23 x - 1)(x + 2): the divisor search would
    # run for hours, the Sturm bisection takes about 80 steps per root
    big = 10 ** 23
    assert _rational_roots([QQ(1), QQ(-1 - big), QQ(big)]) == [QQ(1), QQ(big)]
    assert _rational_roots([QQ(big), QQ(2 * big - 1), QQ(-2)]) == [QQ(-2), QQ(1, big)]
    # x (x - 1/2)^2 (x^2 - 2): a zero root, a double root, an irrational pair
    assert _rational_roots([QQ(1), QQ(-1), QQ(-7, 4), QQ(2), QQ(-1, 2), QQ(0)]) == \
        [QQ(0), QQ(1, 2)]


def test_sparse_map_matches_dense_reference():
    rng = random.Random(20261018)
    for _ in range(200):
        u, v, w = (_random_space(rng, p) for p in "uvw")
        s1, s2 = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        fb = _random_blocks(rng, u, v, s1)
        gb = _random_blocks(rng, v, w, s2)
        f = map_from_blocks(u, v, s1, fb)
        g = map_from_blocks(v, w, s2, gb)
        for n in range(-3, 5):
            assert dense_block(f, n) == _dense_block(fb, u, v, s1, n)
        assert f.is_zero() == all(not any(any(r) for r in b) for b in fb.values())
        gf = g.compose(f)
        assert gf.shift == s1 + s2
        dense_zero = True
        for n in range(-3, 5):
            a = _dense_block(gb, v, w, s2, n + s1)
            b = _dense_block(fb, u, v, s1, n)
            want = dense_product(a, b, w.dim(n + s1 + s2), u.dim(n))
            assert dense_block(gf, n) == want
            dense_zero = dense_zero and not any(any(r) for r in want)
        assert gf.is_zero() == dense_zero
        for _ in range(3):
            x = _random_element(rng, u)
            assert list(f.apply(x).coeffs.items()) == \
                list(_dense_apply(fb, u, v, s1, x).coeffs.items())
            for t in (f.apply(x), _random_element(rng, v)):
                want = GradedElement()
                for d in dict.fromkeys(d for d, _ in t.coeffs):
                    n = d - s1
                    sol = dense_solve(_dense_block(fb, u, v, s1, n), u.dim(n),
                                      dense(v.to_vector(t.homogeneous_part(d), d),
                                            v.dim(d)))
                    if sol is None:
                        want = None
                        break
                    want = want + u.from_vector(sparse(sol), n)
                got = f.solve(t)
                if want is None:
                    assert got is None
                else:
                    assert list(got.coeffs.items()) == list(want.coeffs.items())
                    assert f.apply(got) == t


def _mixed_blocks(rng, source, target, shift):
    """Dense blocks whose entries mix integers with fifths, sevenths and
    1/(2^61 - 1)."""
    dens = [1, 1, 5, 7, 2 ** 61 - 1]
    return {n: [[QQ(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.6 else QQ(0)
                 for _ in range(source.dim(n))] for _ in range(target.dim(n + shift))]
            for n in source.degrees()}


def test_compose_clears_mixed_denominators():
    # compose scales each block by the lcm of its denominators and
    # multiplies on ints
    rng = random.Random(20261019)
    for _ in range(100):
        u, v, w = (_random_space(rng, p) for p in "uvw")
        s1, s2 = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        fb, gb = _mixed_blocks(rng, u, v, s1), _mixed_blocks(rng, v, w, s2)
        gf = map_from_blocks(v, w, s2, gb).compose(map_from_blocks(u, v, s1, fb))
        for n in range(-3, 5):
            want = dense_product(_dense_block(gb, v, w, s2, n + s1),
                                 _dense_block(fb, u, v, s1, n),
                                 w.dim(n + s1 + s2), u.dim(n))
            assert dense_block(gf, n) == want
            assert all(type(c) is Fraction for col in gf.columns.get(n, ()) for _, c in col)
    # a product that cancels exactly: (1/7, -1/(5p)) . (1/p, 5/7) = 0
    p = 2 ** 61 - 1
    line = GradedVectorSpace({0: ["e"]})
    plane = GradedVectorSpace({0: ["a", "b"]})
    f = map_from_blocks(line, plane, 0, {0: [[QQ(1, p)], [QQ(5, 7)]]})
    g = map_from_blocks(plane, line, 0, {0: [[QQ(1, 7), QQ(-1, 5 * p)]]})
    assert not f.is_zero() and not g.is_zero()
    assert g.compose(f).is_zero()
    assert f.compose(g).columns == {0: [[(0, QQ(1, 7 * p)), (1, QQ(5, 49))],
                                        [(0, QQ(-1, 5 * p * p)), (1, QQ(-1, 7 * p))]]}


def test_compose_of_int_blocks_over_different_denominators():
    # f over den 35 and g over den 6 (and 1 in degree 1): the product is
    # nonzero, equals the dense product, reads back as Fractions in lowest
    # terms and is stored over its least denominator
    import math
    u = GradedVectorSpace({0: ["a", "b"], 1: ["c"]})
    v = GradedVectorSpace({0: ["p", "q", "r"], 1: ["s", "t"]})
    w = GradedVectorSpace({0: ["x", "y"], 1: ["z"]})
    fb = {0: [[QQ(1, 5), QQ(2, 7)], [QQ(0), QQ(-3, 5)], [QQ(4, 7), QQ(1)]],
          1: [[QQ(6, 35)], [QQ(-1, 7)]]}
    gb = {0: [[QQ(1, 2), QQ(5, 3), QQ(0)], [QQ(7, 6), QQ(0), QQ(-1, 3)]],
          1: [[QQ(2), QQ(3)]]}
    f, g = map_from_blocks(u, v, 0, fb), map_from_blocks(v, w, 0, gb)
    assert {n: den for n, (_, den) in f._blocks.items()} == {0: 35, 1: 35}
    assert {n: den for n, (_, den) in g._blocks.items()} == {0: 6, 1: 1}
    gf = g.compose(f)
    assert not gf.is_zero()
    for n in (0, 1):
        assert dense_block(gf, n) == dense_product(gb[n], fb[n], w.dim(n), u.dim(n))
        entries = [c for col in gf.columns[n] for _, c in col]
        assert entries and all(type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1
                               for c in entries)
        cols, den = gf._blocks[n]
        assert all(type(x) is int for col in cols for _, x in col)
        assert den == math.lcm(*(c.denominator for c in entries))


def test_nonzero_d_squared_from_int_blocks_is_refused():
    # d a = b/2 and d b = 3c/2, handed over as int blocks over den 2:
    # d d a = 3c/4, so the construction fails however d arrives
    space = GradedVectorSpace({1: ["a"], 0: ["b"], -1: ["c"]})
    d = GradedLinearMap._from_blocks(space, space, -1, {1: ([[(0, 1)]], 2),
                                                        0: ([[(0, 3)]], 2)})
    assert d.compose(d).columns == {1: [[(0, QQ(3, 4))]]}
    with pytest.raises(CertificateFailure, match="boundaries are not all cycles in degree 0"):
        homology(space, d)
    from mclie.cdga import CdgaAxiomViolation
    from mclie.dgla import AxiomViolation, Dgla
    unit = GradedElement({(0, "b"): QQ(1)})
    with pytest.raises(CdgaAxiomViolation, match="d squared is nonzero"):
        Cdga(space, d, lambda d1, l1, d2, l2: GradedElement(), unit, check="skip")
    with pytest.raises(AxiomViolation, match="d squared is nonzero"):
        Dgla(space, d, lambda d1, l1, d2, l2: GradedElement(), check="skip")


def test_rank_nullity_failure_raises_certificate_failure(monkeypatch):
    import mclie.cehar
    import mclie.linalg
    # one class: cehar re-exports the linalg one
    assert mclie.cehar.CertificateFailure is CertificateFailure
    # drop the last cycle of each degree: in degree 0 that is b = d(a), so
    # a boundary is no longer among the cycles
    kernel = mclie.linalg.RowSpace.kernel
    monkeypatch.setattr(mclie.linalg.RowSpace, "kernel", lambda span: kernel(span)[:-1])
    h = homology(*two_term_identity())
    with pytest.raises(CertificateFailure, match="in degree 0$"):
        h.representatives(0)


def _dense_homology(space, d):
    """Per degree (cycles, representatives, boundary basis) as dense
    vectors, from dense blocks and the dense reference: kernel vectors
    from the rref of d_n, the rref of d_{n+1}'s columns, and the kernel
    vectors that raise the rank of the boundaries, in order."""
    out = {}
    for n in space.degrees():
        cols = space.dim(n)
        ker = dense_kernel(dense_block(d, n), cols)
        bnd = dense_rref([list(col) for col in zip(*dense_block(d, n + 1))], cols)[0]
        span, reps = list(bnd), []
        for v in ker:
            if dense_rank(span + [v], cols) > len(span):
                span.append(v)
                reps.append(v)
        out[n] = (ker, reps, bnd)
    return out


@pytest.mark.parametrize("ref", ["f_xa:5", "g_S:3", "heisenberg", "sphere",
                                 "omega:1:3", "omega:2:2", "q_deg2"])
def test_homology_matches_dense_reference(ref):
    from mclie.cehar import harrison
    from mclie.defs import load_algebra
    alg = load_algebra(ref)
    algs = [alg] + ([harrison(alg, 3).dgla] if ref.startswith("omega") else [])
    for a in algs:
        h = homology(a.space, a.d_map)
        want = _dense_homology(a.space, a.d_map)
        assert sorted(h.dims) == sorted(want) == a.space.degrees()
        for n, (cycles, reps, bnd) in want.items():
            assert [dense(v, a.space.dim(n)) for v in _cycles(a.d_map, n)] == cycles
            assert h.dims[n] == len(reps) == len(cycles) - len(bnd)
            for got, vecs in ((h.representatives(n), reps), (h.boundaries(n), bnd)):
                assert [list(e.coeffs.items()) for e in got] == \
                    [list(a.space.from_vector(sparse(v), n).coeffs.items()) for v in vecs]
            _check_class_of(h, a.space, a.d_map, n, reps, bnd)


def _check_class_of(h, space, d, n, reps, bnd):
    """class_of against the dense vectors: each representative is a unit
    vector, each boundary zero, a combination of both the representatives'
    coefficients, and every vector with a nonzero dense image None."""
    k, cols = len(reps), space.dim(n)
    for i, v in enumerate(reps):
        assert h.class_of(space.from_vector(sparse(v), n), n) == {i: QQ(1)}
    for v in bnd:
        assert h.class_of(space.from_vector(sparse(v), n), n) == {}
    rng = random.Random(cols * 31 + n)
    coeffs = [QQ(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in reps + bnd]
    mix = [sum((c * v[t] for c, v in zip(coeffs, reps + bnd)), QQ(0))
           for t in range(cols)]
    got = h.class_of(space.from_vector(sparse(mix), n), n)
    assert list(got.items()) == list(sparse(coeffs[:k]).items())
    block = dense_block(d, n)
    for t in range(cols):
        e = [QQ(int(t == j)) for j in range(cols)]
        if any(row[t] for row in block):
            assert h.class_of(space.from_vector(
                sparse([x + y for x, y in zip(mix, e)]), n), n) is None


def test_linalg_has_no_assert_statements():
    import ast
    import mclie.linalg
    with open(mclie.linalg.__file__) as f:
        tree = ast.parse(f.read())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]


# --- RowSpace against the dense Gauss-Jordan reference on the same rows


def _reduce_by(rows, pivots, v):
    """v minus its components along reduced echelon rows, densely."""
    out = list(v)
    for row, pc in zip(rows, pivots):
        f = v[pc]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return out


def _random_rows(rng, width, count):
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1 or not width:
            v = [QQ(0)] * width
        elif kind < 0.2 and rows:
            v = list(rng.choice(rows))
        elif kind < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = QQ(rng.randint(-3, 3), rng.randint(1, 3)), QQ(rng.randint(-3, 3))
            v = [s * x + t * y for x, y in zip(a, b)]
        else:
            density = rng.choice([0.15, 0.4, 1.0])
            v = [QQ(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < density
                 else QQ(0) for _ in range(width)]
        rows.append(v)
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 7), st.integers(0, 3), st.integers(0, 12))
def test_rowspace_matches_dense_rref(seed, ncols, extra, count):
    # extra columns are carried, as in Coordinates: no pivot there, but
    # every row operation applies to them
    rng = random.Random(seed)
    width = ncols + extra
    vecs = _random_rows(rng, width, count)
    rs = RowSpace(ncols)
    taken = []
    for i, v in enumerate(vecs):
        grew = dense_rank([u[:ncols] for u in vecs[:i + 1]], ncols) > \
            dense_rank([u[:ncols] for u in vecs[:i]], ncols)
        assert rs._add(sparse(v)) == grew
        if grew:
            taken.append(v)
    # the rows that entered are independent on the first ncols columns, so
    # their full-width rref pivots there and carries the rest along
    ref_rows, ref_pivots = dense_rref(taken, width)
    assert ref_pivots == dense_rref([u[:ncols] for u in vecs], ncols)[1]
    assert rref(taken, width) == (ref_rows, ref_pivots)
    square = [u[:ncols] for u in vecs]
    assert rref(square, ncols) == dense_rref(square, ncols)
    assert all(type(x) is Fraction for row in rref(square, ncols)[0] for x in row)
    assert rs.pivots == ref_pivots
    assert rs.dim() == len(ref_pivots)
    assert [dense(rs._rows[pc], width) for pc in rs.pivots] == ref_rows
    assert all(type(x) is Fraction and x for row in rs._rows.values()
               for x in row.values())
    probes = _random_rows(rng, width, 6) + vecs[:3]
    for v in probes:
        reduced = rs._reduce(sparse(v))
        got = dense(reduced, width)
        assert got == _reduce_by(ref_rows, ref_pivots, v)
        assert all(type(x) is Fraction and x for x in reduced.values())
        assert not any(got[pc] for pc in ref_pivots)


# --- RowSpace on primitive int rows against the Fraction RowSpace it replaced

P61, BIG = 2 ** 61 - 1, 10 ** 30 + 57  # coprime: a prime and a 31-digit odd int


def _entry(rng, kind):
    """A nonzero entry: an int, a small Fraction, or a Fraction whose
    numerator or denominator reaches about 10^30."""
    if kind == "mixed":
        kind = rng.choice(["int", "fraction", "large"])
    if kind == "int":
        return rng.choice([-6, -3, -2, -1, 1, 2, 3, 4, 12])
    if kind == "fraction":
        return QQ(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 6))
    return QQ(rng.choice([-1, 1, 2, -3, P61, -BIG, 6 * P61]), rng.choice([1, 2, P61, BIG, 3 * BIG]))


def _vectors(rng, kind, width, count):
    """Sparse vectors of the given kind, some of them combinations of
    earlier ones, so that dependent vectors and cancellations occur."""
    vecs = []
    for _ in range(count):
        r = rng.random()
        if r < 0.25 and len(vecs) >= 2:
            (a, b), s, t = rng.sample(vecs, 2), _entry(rng, kind), _entry(rng, kind)
            v = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in {**a, **b}}
            v = {j: x for j, x in v.items() if x}
        elif r < 0.3:
            v = {}
        else:
            density = rng.choice([0.2, 0.5, 1.0])
            v = {j: _entry(rng, kind) for j in range(width) if rng.random() < density}
        vecs.append(dict(rng.sample(sorted(v.items()), len(v))))  # any key order
    return vecs


def _fraction_items(rs):
    return [(pc, list(row.items())) for pc, row in rs._rows.items()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["int", "fraction", "mixed", "large"]),
       st.integers(0, 7), st.integers(0, 3), st.integers(0, 12))
def test_rowspace_matches_fraction_reference(seed, kind, ncols, extra, count):
    # extra columns are carried, as in Coordinates.  The reference divides
    # an int row by an int pivot into floats, so it reads each vector as
    # Fractions; the int RowSpace reads the vector as it is, and a third
    # one reads it scaled by a random nonzero number, which changes no span
    rng = random.Random(seed)
    width = ncols + extra
    vecs = _vectors(rng, kind, width, count)
    new, ref, scaled = RowSpace(ncols), FractionRowSpace(ncols), RowSpace(ncols)
    for v in vecs:
        grew = ref._add({j: QQ(x) for j, x in v.items()})
        assert new._add(v) == grew
        c = _entry(rng, kind)
        assert scaled._add({j: c * x for j, x in v.items()}) == grew
        assert new.pivots == ref.pivots == scaled.pivots
        assert _fraction_items(new) == _fraction_items(ref) == _fraction_items(scaled)
    assert new.dim() == ref.dim()
    assert new.rows() == ref.rows()
    assert [list(k.items()) for k in new.kernel()] == [list(k.items()) for k in ref.kernel()]
    assert all(type(x) is Fraction and x for row in new.rows() for x in row.values())
    for v in _vectors(rng, kind, width, 6) + vecs[:3]:
        got = new._reduce(v)
        assert list(got.items()) == list(ref._reduce({j: QQ(x) for j, x in v.items()}).items())
        assert all(type(x) is Fraction and x for x in got.values())
        ints, den = new._scaled(v)
        assert den > 0 and all(type(x) is int for x in ints.values())
        assert list(ints) == list(got) and all(QQ(x, den) == got[j] for j, x in ints.items())
    # every stored row is primitive and positive at its pivot
    for pc, row in new._ints.items():
        assert row[pc] > 0 and math.gcd(*row.values()) == 1


# -- homology per (weight, degree) cell ----------------------------------------

def _check_cell_homology(alg, shift):
    """The homology report's cell_dims against dense ranks: the report
    keeps the weights with the given shift, every term of d lands in the
    cell shift weights up and one degree down, and each cell's homology
    is |cell| - rank(d out of it) - rank(d into it)."""
    cells = {}
    for n, lab in alg.basis_items():
        cells.setdefault(((alg.weights or {}).get(lab, 1), n), []).append(lab)
    cell_of = {lab: key for key, labs in cells.items() for lab in labs}
    images = {lab: alg.d(alg.space.basis_element(n, lab))
              for (_, n), labs in cells.items() for lab in labs}

    def dense_block(src, dst):
        return [[images[lab].coeff(dst[1], row) for lab in cells[src]]
                for row in cells.get(dst, [])]

    h = alg.homology()
    assert h.shift == shift
    got = h.cell_dims
    assert list(got) == sorted(cells)
    for (w, n), labs in cells.items():
        target = (w + shift, n - 1)
        for lab in labs:
            assert all(cell_of[l2] == target for _, l2 in images[lab].coeffs), lab
        out = dense_rank(dense_block((w, n), target), len(labs))
        source = (w - shift, n + 1)
        into = dense_rank(dense_block(source, (w, n)), len(cells[source])) \
            if source in cells else 0
        assert got[(w, n)] == len(labs) - out - into, (w, n)
    return got


@pytest.mark.parametrize("pair", FREE_PRODUCT_PAIRS)
@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_cell_homology_of_weight_truncated_ce_matches_dense(pair, bound):
    # the CE complexes that compare_free_product builds for m = bound + 1
    from mclie.cehar import _product_truncation, ce_complex
    from mclie.defs import load_algebra
    from mclie.dgla import free_product_dgla
    g, h = (load_algebra(ref) for ref in pair)
    prod = free_product_dgla(g, h, _product_truncation(g, h, bound + 1), check="skip")
    ce = ce_complex(prod, bound, truncate_by="weight")
    got = _check_cell_homology(ce.algebra, 0)
    assert got[(0, 0)] == 1  # the unit, which C_+ leaves out
    assert ce.weight_block_dims(0) == {}
    for w in range(1, bound + 1):
        assert ce.weight_block_dims(w) == {
            -n: v for (ww, n), v in got.items() if ww == w and v}


@pytest.mark.parametrize("ref", ["f_xa:4", "f_xa:5", "f_xa:6", "f_xa:7", "g_S:3"])
def test_cell_homology_of_weight_shifting_dgla_matches_dense(ref):
    from mclie.defs import load_algebra
    _check_cell_homology(load_algebra(ref), 1)


def _weighted_algebra(ref):
    """A builtin, or the CE algebra truncated by weight at bound 4 of the
    free product that compare_free_product builds at --weight 5."""
    from mclie.cehar import _product_truncation, ce_complex
    from mclie.defs import load_algebra
    from mclie.dgla import free_product_dgla
    if ref != "ce":
        return load_algebra(ref)
    g, h = load_algebra("heisenberg"), load_algebra("abelian:1:0")
    prod = free_product_dgla(g, h, _product_truncation(g, h, 5), check="skip")
    return ce_complex(prod, 4, truncate_by="weight").algebra


@pytest.mark.parametrize("ref", ["f_xa:5", "heisenberg", "ce"])
def test_homology_report_is_the_same_with_and_without_weights(ref):
    # cells by weight only split the rank work: dims, the boundary basis
    # and the representatives are those of one cell per degree
    a = _weighted_algebra(ref)
    split = HomologyReport(a.space, a.d_map, a.weights)
    whole = HomologyReport(a.space, a.d_map)
    assert len(split.cell_dims) > len(whole.cell_dims) == len(a.space.degrees())
    assert list(split.dims.items()) == list(whole.dims.items())
    for n in a.space.degrees():
        for got, want in ((split.boundaries(n), whole.boundaries(n)),
                          (split.representatives(n), whole.representatives(n))):
            assert [list(e.coeffs.items()) for e in got] == \
                [list(e.coeffs.items()) for e in want]


@pytest.mark.parametrize("ref", ["heisenberg", "sphere", "f_xa:3", "g_S:3"])
@pytest.mark.parametrize("words", [2, 3])
def test_reduced_ce_homology_matches_dense(ref, words):
    # H(C_+) over the basis without the unit, against dense ranks
    from mclie.cehar import ce_complex
    from mclie.defs import load_algebra
    ce = ce_complex(load_algebra(ref), words)
    alg = ce.algebra
    plus = {n: [lab for lab in alg.space.labels(n) if lab != "1"]
            for n in alg.space.degrees()}

    def rank_of(n):  # d from degree n of C_+ into degree n - 1
        return dense_rank([[alg.d(alg.space.basis_element(n, lab)).coeff(n - 1, row)
                            for lab in plus[n]] for row in plus.get(n - 1, [])],
                          len(plus[n])) if n in plus else 0

    want = {-n: len(labs) - rank_of(n) - rank_of(n + 1) for n, labs in plus.items()}
    assert ce.reduced_homology_dims() == {n: v for n, v in want.items() if v}
    with pytest.raises(ValueError):
        ce.weight_block_dims(1)
