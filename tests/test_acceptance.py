"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with pytest -s to see them); every tolerance is exact equality.
"""

import itertools
import random

import pytest

from dense_reference import dense_rank
from mclie.linalg import QQ, GradedElement, NonSplitAlgebra, RowSpace
from mclie.freelie import build_basis
from mclie.dgla import (
    abelian_dgla,
    dgla_from_table,
    f_xa_dgla,
    g_s_dgla,
    heisenberg_dgla,
    is_mc,
    gauge_act,
    sphere_dgla,
    zero_dgla,
)
from mclie.cdga import FiniteTableCdga, idempotent_split, localization_exactness_report
from mclie.cehar import (
    compare_free_product,
    harrison,
    harrison_product_comparison,
    mc_augmentation_dictionary,
    minimal_model,
)
from mclie.mc import (
    mc_simplices,
    mc_vertices,
    pi0_moduli,
    verify_component_decomposition,
    verify_theorem_f,
)

RESULTS = []


def record(number, name, ok):
    line = "ACCEPTANCE %02d %s: %s" % (number, name, "PASS" if ok else "FAIL")
    RESULTS.append(line)
    print(line)
    assert ok, line


# -- criterion 1 ---------------------------------------------------------------

def tensor_oracle_dims(degrees, m):
    """Rank of right-normed bracket words in the tensor algebra, by
    (weight, degree); independent of the Lyndon machinery."""
    k = len(degrees)
    dims = {}
    for w in range(1, m + 1):
        words = list(itertools.product(range(k), repeat=w))
        word_index = {wd: i for i, wd in enumerate(words)}
        by_degree = {}
        for br in itertools.product(range(k), repeat=w):
            vec = {br[-1:]: QQ(1)}
            deg_acc = degrees[br[-1]]
            for idx in reversed(br[:-1]):
                new = {}
                dg = degrees[idx]
                for wd, c in vec.items():
                    new[(idx,) + wd] = new.get((idx,) + wd, QQ(0)) + c
                    sign = QQ(-1) if (dg * deg_acc) % 2 else QQ(1)
                    new[wd + (idx,)] = new.get(wd + (idx,), QQ(0)) - sign * c
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


def test_criterion_01_free_lie_basis_counts():
    ok = True
    degree_pool = (-1, 0, 1, 2)
    sets = []
    for size in (1, 2, 3):
        sets.extend(itertools.combinations_with_replacement(degree_pool, size))
    for degrees in sets:
        gens = [("g%d" % i, d) for i, d in enumerate(degrees)]
        lie = build_basis(gens, 4)
        if lie.dims() != tensor_oracle_dims(list(degrees), 4):
            ok = False
            break
    record(1, "free-Lie basis counts vs tensor oracle", ok)


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_02_sphere_facts():
    s = sphere_dgla()
    ok = s.space.labels(-1) == ("x",) and s.space.labels(-2) == ("[x,x]",)
    h = s.homology()
    ok = ok and h.dim(-1) == 0 and h.dim(-2) == 0
    _, result, vertices = mc_vertices(s)
    ok = ok and result.complete and sorted(map(repr, vertices)) == ["0", "x"]
    # s is the Harrison complex of the two-point algebra, on the nose
    e = GradedElement({(0, "e"): QQ(1)})
    two_points = FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1",
                                 augmentation={"1": QQ(1), "e": QQ(0)})
    hh = harrison(two_points, 2).dgla
    tau = hh.element("T(e)")
    ok = ok and hh.space.dim(-1) == 1 and hh.space.dim(-2) == 1
    ok = ok and hh.d(tau) == hh.bracket(tau, tau).scale(QQ(-1, 2))
    ok = ok and s.d(s.element("x")) == \
        s.bracket(s.element("x"), s.element("x")).scale(QQ(-1, 2))
    record(2, "sphere dgla facts and L(QxQ) identification", ok)


# -- criterion 3 ---------------------------------------------------------------

def _g_s_system_shapes(system, size):
    eqs = dict(system.equations)
    for s in range(1, size + 1):
        lab = "x%d" % s
        sym = ("a[%s]" % lab, False)
        dsym = ("a[%s]" % lab, True)
        if eqs.pop(lab, None) != {(dsym,): QQ(-1)}:
            return False
        if eqs.pop("[%s,%s]" % (lab, lab), None) != \
                {(sym,): QQ(-1, 2), (sym, sym): QQ(1, 2)}:
            return False
    for s, t in itertools.combinations(range(1, size + 1), 2):
        key = "[x%d,x%d]" % (s, t)
        sym_s = ("a[x%d]" % s, False)
        sym_t = ("a[x%d]" % t, False)
        if eqs.pop(key, None) != {tuple(sorted([sym_s, sym_t])): QQ(1)}:
            return False
    return not eqs


def test_criterion_03_discrete_space_example():
    ok = True
    for size in (1, 2, 3):
        g = g_s_dgla(size, 2)
        for n in (0, 1, 2):
            from mclie.mc import derive_constraints, solve_structured
            system = derive_constraints(g, n)
            ok = ok and _g_s_system_shapes(system, size)
            result = solve_structured(system)
            ok = ok and result.complete
            data = mc_simplices(g, n, 2)
            ok = ok and data["complete"] and len(data["samples"]) == size + 1
    record(3, "discrete-space example: system, moduli, constant levels 0-2", ok)


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_04_circle_point_example():
    m = 5
    g = f_xa_dgla(m)
    e = ["x", "[a,x]", "[a,[a,x]]", "[a,[a,[a,x]]]", "[a,[a,[a,[a,x]]]]"]
    ok = g.space.labels(-1) == tuple(e)
    a = g.element("a")
    es = [g.element(lab) for lab in e]
    for i in range(4):
        ok = ok and g.bracket(a, es[i]) == es[i + 1]
    # displayed differentials
    de2 = g.d(es[2])
    ok = ok and de2 == -g.bracket(es[0], es[2]) - g.bracket(es[1], es[1])
    de3 = g.d(es[3])
    ok = ok and de3 == -g.bracket(es[0], es[3]) - g.bracket(es[1], es[2]).scale(3)
    # exponential orbit within the truncation
    out = gauge_act(g, a, es[0])
    expected = GradedElement()
    fact = QQ(1)
    for k, ek in enumerate(es):
        if k:
            fact *= k
        expected = expected + ek.scale(QQ(1) / fact)
    ok = ok and out == expected
    # MC vertices are exactly 0 and x
    _, result, vertices = mc_vertices(g, support=m)
    ok = ok and result.complete and sorted(map(repr, vertices)) == ["0", "x"]
    record(4, "circle-plus-point example in the weight-5 truncation", ok)


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_05_theorem_f_pi0():
    ok = True
    for k in (1, 2, 3):
        rep = verify_theorem_f([zero_dgla()] * k, 4)
        ok = ok and rep["pass"] and rep["moduli_product"] == k
    rep = verify_theorem_f([abelian_dgla({0: ["a"]}), zero_dgla()], 4)
    ok = ok and rep["pass"] and rep["moduli_product"] == 2
    rep = verify_theorem_f([heisenberg_dgla(), abelian_dgla({0: ["z"]})], 4)
    ok = ok and rep["pass"] and rep["moduli_product"] == 2
    record(5, "Theorem F at pi_0 with g u 0 acyclicity (m = 4 vs 5)", ok)


# -- criterion 6 ---------------------------------------------------------------

def weighted_exterior_oracle(dim, weights, bracket_coeffs):
    """Classical CE of a degree-0 Lie algebra on the exterior algebra,
    refined by the weight grading; independent route."""
    import itertools as it

    def subsets(p):
        return list(it.combinations(range(dim), p))

    def weight_of(sub):
        return sum(weights[i] for i in sub)

    mats = {}
    for p in range(0, dim + 1):
        rows = subsets(p + 1)
        cols = subsets(p)
        m = [[QQ(0)] * len(cols) for _ in rows]
        for cidx, phi in enumerate(cols):
            for ridx, arg in enumerate(rows):
                total = QQ(0)
                for r in range(p + 1):
                    for s in range(r + 1, p + 1):
                        br = bracket_coeffs.get((arg[r], arg[s]),
                                                [QQ(0)] * dim)
                        rest = tuple(x for t, x in enumerate(arg)
                                     if t != r and t != s)
                        for kk in range(dim):
                            if not br[kk] or kk in rest:
                                continue
                            ins = tuple(sorted((kk,) + rest))
                            if ins != phi:
                                continue
                            pos = sum(1 for x in rest if x < kk)
                            total += QQ(-1) ** (r + s) * QQ(-1) ** pos * br[kk]
                m[ridx][cidx] = total
        mats[p] = (m, cols, rows)
    out = {}
    for p in range(1, dim + 1):
        m, cols, rows = mats[p]
        # restrict to fixed weight blocks (d preserves weight)
        weights_present = sorted({weight_of(c) for c in cols})
        for w in weights_present:
            cidx = [i for i, c in enumerate(cols) if weight_of(c) == w]
            ridx = [i for i, r in enumerate(rows) if weight_of(r) == w]
            block = [[m[i][j] for j in cidx] for i in ridx]
            rank_out = dense_rank(block, len(cidx))
            m_in, cols_in, rows_in = mats[p - 1]
            cidx_in = [i for i, c in enumerate(cols_in) if weight_of(c) == w]
            ridx_in = [i for i, r in enumerate(rows_in)
                       if weight_of(r) == w]
            block_in = [[m_in[i][j] for j in cidx_in] for i in ridx_in]
            rank_in = dense_rank(block_in, len(cidx_in)) if cidx_in else 0
            hdim = len(cidx) - rank_out - rank_in
            if hdim:
                out[(w, p)] = hdim
    return out


def test_criterion_06_free_product_cohomology():
    ok = True
    m = 4
    heis = heisenberg_dgla()
    line = abelian_dgla({0: ["z"]})
    line2 = abelian_dgla({0: ["w"]})
    pairs = [(line, line2), (heis, line), (line, zero_dgla())]
    oracles = {
        id(line): weighted_exterior_oracle(1, [1], {}),
        id(line2): weighted_exterior_oracle(1, [1], {}),
        id(heis): weighted_exterior_oracle(
            3, [1, 1, 2], {(0, 1): [QQ(0), QQ(0), QQ(1)]}),
        id(zero_dgla()): {},
    }
    for g, h in pairs:
        report = compare_free_product(g, h, m)
        ok = ok and report["pass"]
        # factor tables against the independent exterior oracle, w < m
        for alg in (g, h):
            if alg.total_dim() == 0:
                continue
            if alg is heis:
                oracle = weighted_exterior_oracle(
                    3, [1, 1, 2], {(0, 1): [QQ(0), QQ(0), QQ(1)]})
            else:
                oracle = weighted_exterior_oracle(1, [1], {})
            from mclie.cehar import ce_complex
            ce = ce_complex(alg, m - 1, truncate_by="weight")
            for w in range(1, m):
                mine = ce.weight_block_dims(w)
                theirs = {p: v for (ww, p), v in oracle.items() if ww == w}
                ok = ok and mine == theirs
    record(6, "free-product CE cohomology vs independent exterior oracle", ok)


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_07_component_decomposition():
    ok = True
    battery = [
        abelian_dgla({0: ["a"], -1: ["u", "v"], -2: ["w"]},
                     {"a": GradedElement({(-1, "u"): QQ(1)}),
                      "v": GradedElement({(-2, "w"): QQ(1)})}),
        sphere_dgla(),
        heisenberg_dgla(),
        g_s_dgla(2, 2),
    ]
    for g in battery:
        report = verify_component_decomposition(g)
        ok = ok and report["pass"]
    # stabilized run on a presented truncation: same verdicts at m and m+1
    for m in (4, 5):
        report = verify_component_decomposition(f_xa_dgla(m), support=m)
        ok = ok and report["pass"] and report["moduli_count"] == 2
    record(7, "Theorem 4 consequence: cover homology isomorphisms", ok)


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_08_abelian_pi0_is_homology():
    rng = random.Random(38)
    ok = True
    for trial in range(10):
        basis = {}
        diffs = {}
        counter = itertools.count()
        for deg in range(-2, 3):
            h_dim = rng.randrange(0, 4)
            labels = []
            for _ in range(h_dim):
                labels.append("h%d" % next(counter))
            # an acyclic pair raising into this degree
            if rng.random() < 0.5:
                a = "c%d" % next(counter)
                b = "b%d" % next(counter)
                basis.setdefault(deg + 1, []).append(a)
                labels.append(b)
                diffs[a] = GradedElement({(deg, b): QQ(1)})
            if labels:
                basis.setdefault(deg, []).extend(labels)
        if not basis:
            basis = {0: ["h"]}
        g = abelian_dgla(basis, diffs)
        h = g.homology()
        moduli = pi0_moduli(g)
        ok = ok and moduli.kind == "abelian-linear"
        ok = ok and moduli.dims["H_-1"] == h.dim(-1)
        ok = ok and len(moduli.representatives) == max(h.dim(-1), 1)
        # representatives are honest cycles spanning the quotient
        for r in moduli.representatives:
            good, _ = is_mc(g, r)
            ok = ok and good
    record(8, "abelian pi_0 MC equals H_{-1} via two code paths", ok)


# -- criterion 9 ---------------------------------------------------------------

def random_table_cdga(rng, max_dim=12):
    blocks = []
    total = 1
    while total < max_dim - 2 and len(blocks) < 5:
        kind = rng.choice(["field", "dual", "exterior", "cone"])
        blocks.append(kind)
        total += {"field": 1, "dual": 1, "exterior": 1, "cone": 2}[kind]
    basis = {0: ["1"]}
    table = {}
    diffs = {}
    names = []
    counter = itertools.count()
    for kind in blocks:
        i = next(counter)
        if kind == "field":
            n = "p%d" % i
            basis[0].append(n)
            table[(n, n)] = GradedElement({(0, n): QQ(1)})
            names.append(n)
        elif kind == "dual":
            n = "q%d" % i
            basis[0].append(n)
            table[(n, n)] = GradedElement()
            names.append(n)
        elif kind == "exterior":
            n = "r%d" % i
            basis.setdefault(-1, []).append(n)
            table[(n, n)] = GradedElement()
            names.append(n)
        else:
            n, mlab = "s%d" % i, "ds%d" % i
            basis.setdefault(-1, []).append(n)
            basis[0].append(mlab)
            table[(n, n)] = GradedElement()
            table[(mlab, mlab)] = GradedElement()
            table[(n, mlab)] = GradedElement()
            diffs[n] = GradedElement({(0, mlab): QQ(1)})
            names.extend([n, mlab])
    for n1, n2 in itertools.combinations(names, 2):
        table.setdefault((n1, n2), GradedElement())
    return FiniteTableCdga(basis, table, "1", diffs, check="full")


def test_criterion_09_localization_machinery():
    rng = random.Random(20240515)
    ok = True
    for _ in range(20):
        a = random_table_cdga(rng)
        cocycles = [lab for n, lab in a.basis_items()
                    if n == 0 and a.d(a.element(lab)).is_zero()]
        u = GradedElement()
        for lab in cocycles:
            u = u + a.element(lab).scale(QQ(rng.randrange(-2, 3)))
        rep = localization_exactness_report(a, u)
        ok = ok and rep["pass"]
    # idempotent splitting of Q^k
    for k in (2, 3, 4):
        labels = ["1"] + ["e%d" % i for i in range(1, k)]
        table = {}
        for i in range(1, k):
            for j in range(1, k):
                table[("e%d" % i, "e%d" % j)] = (
                    GradedElement({(0, "e%d" % i): QQ(1)}) if i == j
                    else GradedElement())
        a = FiniteTableCdga({0: labels}, table, "1")
        factors = idempotent_split(a)
        ok = ok and len(factors) == k
        ok = ok and all(f.cohomology_dims() == {0: 1} for _, f, _ in factors)
    # dual numbers are not split
    eps = FiniteTableCdga({0: ["1", "eps"]},
                          {("eps", "eps"): GradedElement()}, "1")
    try:
        idempotent_split(eps)
        ok = False
    except NonSplitAlgebra:
        pass
    record(9, "localization exactness and idempotent splitting", ok)


# -- criterion 10 ------------------------------------------------------------------

def test_criterion_10_monoidal_comparison():
    e = GradedElement({(0, "e"): QQ(1)})
    qxq = FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1",
                          augmentation={"1": QQ(1), "e": QQ(0)})
    qdeg2 = FiniteTableCdga({0: ["1"], 2: ["w"]},
                            {("w", "w"): GradedElement()}, "1",
                            augmentation={"1": QQ(1), "w": QQ(0)})
    ok = True
    for a, b in itertools.product([qdeg2, qxq], repeat=2):
        report = harrison_product_comparison(a, b, 3)
        ok = ok and report["bijective"]
    record(10, "L(AxB) = L(A) u L(B) as truncated structure constants", ok)


# -- criterion 11 ------------------------------------------------------------------

def test_criterion_11_minimal_models():
    ok = True
    # (i) zero differential: the model is the algebra itself
    heis = heisenberg_dgla()
    model = minimal_model(heis)
    ok = ok and not model.has_higher_corrections()
    ok = ok and model.homology_dims() == {0: 3}
    md = model.as_dgla()
    # same structure constants under the representative identification
    t = model.transfer
    for (n1, i1), (n2, i2) in itertools.product(model.generators, repeat=2):
        val = model.l2.get(((n1, i1), (n2, i2)), {})
        br = heis.bracket(t.i(n1, i1), t.i(n2, i2))
        back = GradedElement()
        for (n, i), c in val.items():
            back = back + t.i(n, i).scale(c)
        ok = ok and (br - back).is_zero()
    # (ii) acyclic inputs give the zero model
    ok = ok and minimal_model(sphere_dgla()).homology_dims() == {}
    iso = abelian_dgla({1: ["u"], 0: ["v"]},
                       {"u": GradedElement({(0, "v"): QQ(1)})})
    ok = ok and minimal_model(iso).homology_dims() == {}
    # (iii) 4-dimensional non-formal-style complex
    x = GradedElement({(2, "x"): QQ(1)})
    z = GradedElement({(4, "z"): QQ(1)})
    g = dgla_from_table({1: ["v"], 2: ["x"], 3: ["y"], 4: ["z"]},
                        {("v", "v"): x, ("v", "y"): z}, {"y": x},
                        check="full")
    model = minimal_model(g, 3, (0, 3))
    ok = ok and model.linear_part_is_zero()
    ok = ok and model.quasi_iso_verified((0, 3))
    h = g.homology()
    ok = ok and model.homology_dims() == {n: h.dim(n) for n in h.degrees()
                                          if h.dim(n)}
    ok = ok and model.has_higher_corrections()
    record(11, "minimal models: identity, zero, and transfer corrections", ok)


# -- criterion 12 ------------------------------------------------------------------

def test_criterion_12_mc_augmentation_dictionary():
    rng = random.Random(7)
    ok = True
    for g in (sphere_dgla(), f_xa_dgla(3), g_s_dgla(2, 2)):
        labels = [(-1, lab) for lab in g.space.labels(-1)]
        for _ in range(50):
            xi = GradedElement({k: QQ(rng.randrange(-2, 3)) for k in labels})
            out = mc_augmentation_dictionary(g, xi, 3)
            ok = ok and out["match"]
            if out["is_mc"]:
                ok = ok and out["phi_is_dg"] and out["triangle"]
    record(12, "eps_xi dg iff MC; shift triangle commutes to word length 3", ok)


def test_zz_summary():
    print()
    for line in RESULTS:
        print(line)
    assert len(RESULTS) == 12
