import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_rank, dense_rref, dense_solve
from mclie.linalg import (
    QQ,
    CertificateFailure,
    ChainComplex,
    Coordinates,
    FiniteCommutativeAlgebra,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    NonSplitAlgebra,
    RowSpace,
    homology,
    idempotents,
    kernel_basis,
    mat_mul,
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
        assert coords.rank() == dense_rank(vecs, n) == dense_rank(matrix, m)
        for _ in range(4):
            if rng.random() < 0.5:
                b = [QQ(rng.randrange(-3, 4)) for _ in range(n)]
            else:
                cs = [QQ(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in vecs]
                b = [sum((c * v[i] for c, v in zip(cs, vecs)), QQ(0))
                     for i in range(n)]
            x = coords.coords(b)
            assert x == dense_solve(matrix, m, b) == solve_matrix(matrix, m, b)
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


def test_sparse_map_matches_dense_reference():
    rng = random.Random(20261018)
    for _ in range(200):
        u, v, w = (_random_space(rng, p) for p in "uvw")
        s1, s2 = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        fb = _random_blocks(rng, u, v, s1)
        gb = _random_blocks(rng, v, w, s2)
        f = GradedLinearMap(u, v, s1, fb)
        g = GradedLinearMap(v, w, s2, gb)
        for n in range(-3, 5):
            assert f.block(n) == _dense_block(fb, u, v, s1, n)
        assert f.is_zero() == all(not any(any(r) for r in b) for b in fb.values())
        gf = g.compose(f)
        assert gf.shift == s1 + s2
        dense_zero = True
        for n in range(-3, 5):
            a = _dense_block(gb, v, w, s2, n + s1)
            b = _dense_block(fb, u, v, s1, n)
            want = mat_mul(a, b) if a and b and b[0] else \
                [[QQ(0)] * u.dim(n) for _ in range(w.dim(n + s1 + s2))]
            assert gf.block(n) == want
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
                                      v.to_vector(t.homogeneous_part(d), d))
                    if sol is None:
                        want = None
                        break
                    want = want + u.from_vector(sol, n)
                got = f.solve(t)
                if want is None:
                    assert got is None
                else:
                    assert list(got.coeffs.items()) == list(want.coeffs.items())
                    assert f.apply(got) == t


def test_map_constructor_rejects_misshapen_blocks():
    space = GradedVectorSpace({1: ["a"], 0: ["b", "c"]})
    with pytest.raises(ValueError, match="wrong shape"):
        GradedLinearMap(space, space, -1, {1: [[QQ(1), QQ(2)]]})
    # an all-zero block is dropped before its shape is looked at
    assert GradedLinearMap(space, space, -1, {1: [[QQ(0), QQ(0)]]}).is_zero()


def test_rank_nullity_failure_raises_certificate_failure(monkeypatch):
    import mclie.cehar
    import mclie.linalg
    # one class: cehar re-exports the linalg one
    assert mclie.cehar.CertificateFailure is CertificateFailure
    # drop the last cycle of each degree: in degree 0 that is b = d(a), so
    # a boundary is no longer among the cycles
    kernel = mclie.linalg._kernel
    monkeypatch.setattr(mclie.linalg, "_kernel", lambda span: kernel(span)[:-1])
    with pytest.raises(CertificateFailure, match="in degree 0$"):
        homology(two_term_identity())


def _dense_homology(c):
    """Per degree (cycle count, representatives, boundary basis) as dense
    vectors, from dense blocks and the dense reference: kernel vectors
    from the rref of d_n, the rref of d_{n+1}'s columns, and the kernel
    vectors that raise the rank of the boundaries, in order."""
    out = {}
    for n in c.space.degrees():
        cols = c.space.dim(n)
        red, pivots = dense_rref(c.d.block(n), cols)
        ker = []
        for fc in range(cols):
            if fc not in pivots:
                v = [QQ(0)] * cols
                v[fc] = QQ(1)
                for row, pc in zip(red, pivots):
                    v[pc] = -row[fc]
                ker.append(v)
        bnd = dense_rref([list(col) for col in zip(*c.d.block(n + 1))], cols)[0]
        span, reps = list(bnd), []
        for v in ker:
            if dense_rank(span + [v], cols) > len(span):
                span.append(v)
                reps.append(v)
        out[n] = (len(ker), reps, bnd)
    return out


@pytest.mark.parametrize("ref", ["f_xa:5", "g_S:3", "heisenberg", "sphere",
                                 "omega:1:3", "omega:2:2", "q_deg2"])
def test_homology_matches_dense_reference(ref):
    from mclie.cehar import harrison
    from mclie.defs import load_algebra
    alg = load_algebra(ref)
    algs = [alg] + ([harrison(alg, 3).dgla] if ref.startswith("omega") else [])
    for a in algs:
        c = ChainComplex(a.space, a.d_map)
        h = homology(c)
        want = _dense_homology(c)
        assert sorted(h.dims) == sorted(want) == a.space.degrees()
        for n, (cycles, reps, bnd) in want.items():
            assert h.cycle_dims[n] == cycles
            assert h.dims[n] == len(reps) == cycles - len(bnd)
            for got, vecs in ((h.representatives[n], reps), (h.boundaries[n], bnd)):
                assert [list(e.coeffs.items()) for e in got] == \
                    [list(a.space.from_vector(v, n).coeffs.items()) for v in vecs]


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
        assert rs.add(v) == grew
        if grew:
            taken.append(v)
    # the rows that entered are independent on the first ncols columns, so
    # their full-width rref pivots there and carries the rest along
    ref_rows, ref_pivots = dense_rref(taken, width)
    assert ref_pivots == dense_rref([u[:ncols] for u in vecs], ncols)[1]
    assert rref(taken, width) == (ref_rows, ref_pivots)
    square = [u[:ncols] for u in vecs]
    assert rref(square, ncols) == dense_rref(square, ncols)
    assert rs.pivots == ref_pivots
    assert rs.dim() == len(ref_pivots)
    assert rs.rows == ref_rows
    assert all(type(x) is Fraction for row in rs.rows for x in row)
    probes = _random_rows(rng, width, 6) + vecs[:3]
    for v in probes:
        got = rs.reduce(v)
        assert got == _reduce_by(ref_rows, ref_pivots, v)
        assert all(type(x) is Fraction for x in got)
        assert not any(got[pc] for pc in ref_pivots)
