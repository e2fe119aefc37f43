"""The two rational-root searches of pi_0 as they stood before each became
one polynomial, kept verbatim as oracles.

On the cdga side, idempotents split a degree-0 algebra by simultaneous
rational eigenspaces of its multiplication operators: each operator is
restricted to the current subspaces, its characteristic polynomial comes
from Faddeev-LeVerrier (_char_poly), every rational root gets its kernel,
and the one-dimensional common eigenlines are normalised to idempotents.
On the dgla side, _gauge_connection intersects the rational roots of every
coordinate polynomial of gauge(t*b, xi) - eta, and partition_by_gauge tries
each pair of vertices in both directions."""

import itertools
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from mclie.dgla import Dgla, _gauge_series
from mclie.linalg import (ONE, ZERO, Coordinates, GradedElement, NonSplitAlgebra, RowSpace,
                          _rational_roots, _sparse, linear_combination)


def _char_poly(m: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, c1, ..., cn] of m
    (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [ONE]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
    return coeffs


def idempotents(a) -> list[dict[int, Fraction]]:
    """Orthogonal primitive idempotents of a split algebra, by simultaneous
    rational eigenspace splitting of the multiplication operators, as
    sparse coordinate vectors {i: c} in its basis, in index order, sorted
    by their coordinate lists.

    a is a commutative algebra concentrated in degree 0, a cdga such as the
    H^0 of cdga.cohomology_algebra: it is read through its degree-0 basis,
    a.multiply and a.unit.

    Raises NonSplitAlgebra when some multiplication operator has an
    irrational or non-semisimple spectrum, i.e. the algebra is not a finite
    product of copies of Q.
    """
    space = a.space
    n = space.dim(0)
    # subspaces as lists of basis elements
    subspaces = [space.basis_elements(0)]
    for eg in space.basis_elements(0):
        new_subspaces = []
        for v_basis in subspaces:
            k = len(v_basis)
            if k == 1:
                new_subspaces.append(v_basis)
                continue
            # restrict e_g* to the subspace: solve e_g*v_j = sum_i r_ij v_i
            in_basis = Coordinates([space.to_vector(v, 0) for v in v_basis], n)
            restr = []
            for vb in v_basis:
                coords = in_basis.coords(space.to_vector(a.multiply(eg, vb), 0))
                if coords is None:
                    raise NonSplitAlgebra("subspace not invariant")
                restr.append(coords)
            rmat = [[restr[j].get(i, ZERO) for j in range(k)] for i in range(k)]
            pieces = []
            for lam in _rational_roots(_char_poly(rmat)):
                ker = RowSpace(k, (_sparse([x - lam if i == j else x for j, x in enumerate(rmat[i])])
                                   for i in range(k))).kernel()
                if ker:
                    pieces.append([linear_combination((c, v_basis[j]) for j, c in kv.items())
                                   for kv in ker])
            if sum(map(len, pieces)) != k:
                raise NonSplitAlgebra(
                    "multiplication operator has irrational or non-semisimple spectrum")
            new_subspaces.extend(pieces)
        subspaces = new_subspaces
    if any(len(v) != 1 for v in subspaces):
        raise NonSplitAlgebra("common eigenspaces are not one-dimensional")
    idems = []
    for (vec,) in subspaces:
        sq = a.multiply(vec, vec)
        # v*v = mu*v on a common eigenline; mu = 0 would mean a nilpotent line
        first = min(vec.coeffs, key=lambda key: space.index(*key))
        mu = sq.coeffs.get(first, ZERO) / vec.coeffs[first]
        if not mu:
            raise NonSplitAlgebra("nilpotent eigenline")
        if vec.scale(mu) != sq:
            raise NonSplitAlgebra("eigenline not multiplicatively closed")
        idems.append(vec.scale(1 / mu))
    # exact verification of the defining identities
    for i, e in enumerate(idems):
        if a.multiply(e, e) != e:
            raise NonSplitAlgebra("candidate idempotent fails e*e = e")
        if any(not a.multiply(e, f).is_zero() for f in idems[i + 1:]):
            raise NonSplitAlgebra("candidate idempotents not orthogonal")
    if linear_combination((ONE, e) for e in idems) != a.unit:
        raise NonSplitAlgebra("idempotents do not sum to the unit")
    vectors = [space.to_vector(e, 0) for e in idems]
    vectors.sort(key=lambda v: [v.get(t, ZERO) for t in range(n)])
    return [{t: v[t] for t in sorted(v)} for v in vectors]


def _poly_rational_roots(coeff_map: Mapping[int, Fraction]) -> list[Fraction]:
    deg = max(coeff_map)
    coeffs = [coeff_map.get(k, ZERO) for k in range(deg, -1, -1)]
    return _rational_roots(coeffs)


def _gauge_connection(g: Dgla, b: GradedElement, xi: GradedElement,
                      eta: GradedElement) -> Optional[Fraction]:
    """Some rational t with gauge(t*b, xi) = eta, or None."""
    poly = _gauge_series(g, b, xi)
    keys = set()
    for coeff in poly.values():
        keys.update(coeff.coeffs)
    keys.update(eta.coeffs)
    per_key: dict = {}
    for key in keys:
        cm = {k: v.coeffs.get(key, ZERO) for k, v in poly.items()}
        cm[0] = cm.get(0, ZERO) - eta.coeffs.get(key, ZERO)
        per_key[key] = {k: c for k, c in cm.items() if c}
    nontrivial = [cm for cm in per_key.values() if cm]
    if not nontrivial:
        return ZERO  # identical elements
    if any(list(cm) == [0] for cm in nontrivial):
        return None
    candidates = None
    for cm in nontrivial:
        roots = set(_poly_rational_roots(cm))
        candidates = roots if candidates is None else (candidates & roots)
        if not candidates:
            return None
    for t in sorted(candidates):
        ok = True
        for cm in per_key.values():
            val = ZERO
            for k, c in cm.items():
                val += c * t ** k
            if val:
                ok = False
                break
        if ok:
            return t
    return None


def partition_by_gauge(g: Dgla, vertices: Sequence[GradedElement]):
    """Partition a finite vertex list into gauge orbits by single-generator
    moves gauge(t*b, -) with exact rational t, closed transitively.

    Returns (representatives, orbits, witnesses); a witness (i, j) ->
    (label, t) records gauge(t * basis[label], v_i) = v_j.
    """
    n = len(vertices)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    witnesses = {}
    g0 = [g.space.basis_element(0, lab) for lab in g.space.labels(0)]
    for i, j in itertools.combinations(range(n), 2):
        if find(i) == find(j):
            continue
        for bidx, b in enumerate(g0):
            t = _gauge_connection(g, b, vertices[i], vertices[j])
            if t is None:
                t = _gauge_connection(g, b, vertices[j], vertices[i])
                if t is not None:
                    witnesses[(j, i)] = (g.space.labels(0)[bidx], t)
                    union(i, j)
                    break
            else:
                witnesses[(i, j)] = (g.space.labels(0)[bidx], t)
                union(i, j)
                break
    orbit_map: dict[int, list[GradedElement]] = {}
    for i, v in enumerate(vertices):
        orbit_map.setdefault(find(i), []).append(v)
    reps = [vertices[r] for r in sorted(orbit_map)]
    orbits = [orbit_map[r] for r in sorted(orbit_map)]
    return reps, orbits, witnesses
