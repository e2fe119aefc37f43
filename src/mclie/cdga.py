"""Commutative dg algebras: finite multiplication tables and truncated free
graded-commutative presentations, Sullivan-de Rham forms on simplices, path
objects, localization at a cocycle, idempotent splitting, and the tensor of
a dgla with polynomial forms.

Degrees are stored homologically (a cohomological degree n sits in
homological degree -n); constructors take cohomological degrees where that
is the natural reading and negate internally.  Truncated free algebras are
quotients by a dg ideal of high truncation weight, so all axioms hold
exactly on the truncation, with no edge caveats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .linalg import (
    ONE,
    QQ,
    ZERO,
    Coordinates,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    RowSpace,
    homology as complex_homology,
    idempotents as algebra_idempotents,
    linear_combination,
    _DgAlgebra,
    _add_scaled,
    _axpy,
    _element_of,
)
from . import freelie
from .dgla import Dgla
from .freelie import InvalidDifferential, TruncationTooLarge

CDGA_PAIR_CAP = 80
CDGA_TRIPLE_CAP = 26
CELL_EXTRA_WEIGHT = 3


class OddDegreeUnit(Exception):
    """Inverting an odd-degree cocycle only yields the terminal algebra."""


class NonCocycle(Exception):
    """The element is not a cocycle: localization requires du = 0, and only
    cocycles have classes in H."""


class ZeroCohomology(Exception):
    """H vanishes in the requested degree, so it has no algebra structure
    to split (H^0 = 0 when the unit is a boundary)."""


class NoAugmentation(Exception):
    """The operation needs an augmented cdga."""


class CdgaAxiomViolation(Exception):
    pass


class LocalizationFailure(Exception):
    """A computed localization contradicts its own construction."""


class EvenDegreeUnit(Exception):
    """The finite-table colimit model inverts only cocycles of degree 0."""


class TruncationNotDgStable(Exception):
    """A generator differential lowers truncation weight, so the truncation
    ideal would not be differential-stable."""


class Cdga(_DgAlgebra):
    """Common interface: graded space (homological degrees), a differential
    d_fn(n, label), lazy basis products mult_fn(deg1, label1, deg2,
    label2) (see _DgAlgebra), unit element, optional augmentation."""

    _SIGN = ONE
    _SYMMETRY = "graded commutativity"
    _TRIPLE_LAW = "associativity"
    _VIOLATION = CdgaAxiomViolation
    _TRIPLE_CAP = CDGA_TRIPLE_CAP

    def __init__(self, space: GradedVectorSpace,
                 d_fn: Optional[Callable[[int, str], GradedElement]],
                 mult_fn: Callable[[int, str, int, str], GradedElement],
                 unit: GradedElement,
                 augmentation: Optional[Mapping[str, Fraction]] = None,
                 check: str = "auto"):
        self.unit = unit
        self.augmentation = dict(augmentation) if augmentation is not None else None
        super().__init__(space, d_fn, mult_fn, check)

    mult_labels = _DgAlgebra._product_labels
    multiply = _DgAlgebra._product

    def eps(self, elt: GradedElement) -> Fraction:
        if self.augmentation is None:
            raise NoAugmentation("cdga has no augmentation")
        s = ZERO
        for (n, lab), c in elt.coeffs.items():
            a = self.augmentation.get(lab, ZERO)
            if a:
                s += c * a
        return s

    def cohomology_dims(self) -> dict[int, int]:
        """Cohomological report: degree n is homological degree -n."""
        h = self.homology()
        return {-n: h.dim(n) for n in h.degrees() if h.dim(n)}

    # -- axioms ---------------------------------------------------------------

    def verify_axioms(self, pair_cap: int = CDGA_PAIR_CAP,
                      triple_cap: int = CDGA_TRIPLE_CAP) -> list[tuple[str, int, int]]:
        """The unit, then graded commutativity/Leibniz on basis pairs and
        associativity on basis triples within the given size caps, then the
        augmentation; returns the laws the caps skipped (see
        _check_axioms)."""
        items = self.basis_items()
        pos = {key: p for p, key in enumerate(items)}
        # unit * e_p off the table rows of the unit's support
        rows = [(c, self._table_row(items, pos, pos[key]))
                for key, c in self.unit.coeffs.items()]
        for p, (_, lab) in enumerate(items):
            acc = {p: -ONE}
            for c, row in rows:
                _axpy(acc, row[p], c)
            if any(acc.values()):
                raise CdgaAxiomViolation("unit fails on %s" % lab)
        if not self.d(self.unit).is_zero():
            raise CdgaAxiomViolation("unit is not a cocycle")
        skipped = self._check_axioms(pair_cap, triple_cap)
        if self.augmentation is not None:
            for (dd, lab) in items:
                if dd != 0 and self.augmentation.get(lab, ZERO):
                    raise CdgaAxiomViolation("augmentation nonzero off degree 0")
                e = self.space.basis_element(dd, lab)
                if self.eps(self.d(e)):
                    raise CdgaAxiomViolation("augmentation is not a dg map")
            if self.eps(self.unit) != ONE:
                raise CdgaAxiomViolation("augmentation of the unit is not 1")
        return skipped

    def _triple_failure(self, table: list[list[dict[int, Fraction]]],
                        degrees: list[int]) -> Optional[tuple[int, int, int]]:
        """The first basis triple (i, j, k), in itertools.product order,
        with (uv)w - u(vw) nonzero, contracted over the table; None when
        associativity holds."""
        n = len(table)
        for i, j in itertools.product(range(n), repeat=2):
            uv, row_i, row_j = table[i][j], table[i], table[j]
            for k in range(n):
                vw = row_j[k]
                if not (uv or vw):
                    continue
                acc: dict[int, Fraction] = {}
                for a, c in uv.items():
                    _axpy(acc, table[a][k], c)
                for b, c in vw.items():
                    _axpy(acc, row_i[b], -c)
                if any(acc.values()):
                    return i, j, k
        return None


class FiniteTableCdga(Cdga):
    """Cdga from an explicit finite multiplication table.

    basis maps cohomological degree to labels; table maps (l1, l2) to the
    product element (GradedElement in homological degrees); missing mirror
    pairs are filled by graded commutativity, missing pairs are zero.
    """

    def __init__(self, basis_cohomological: Mapping[int, Sequence[str]],
                 table: Mapping[tuple[str, str], GradedElement],
                 unit_label: str,
                 differentials: Optional[Mapping[str, GradedElement]] = None,
                 augmentation: Optional[Mapping[str, Fraction]] = None,
                 check: str = "full"):
        basis = {-n: labs for n, labs in basis_cohomological.items()}
        space = GradedVectorSpace(basis)
        degree_of = {lab: n for n in space.degrees() for lab in space.labels(n)}
        full = self._mirror_filled(space, table)
        for lab, n in degree_of.items():
            full.setdefault((unit_label, lab), space.basis_element(n, lab))
            full.setdefault((lab, unit_label), space.basis_element(n, lab))
        differentials = differentials or {}
        unit = space.basis_element(degree_of[unit_label], unit_label)
        self.table = full
        super().__init__(space, lambda n, lab: differentials.get(lab, GradedElement()),
                         lambda d1, l1, d2, l2: full.get((l1, l2), GradedElement()),
                         unit, augmentation, check)


class FreePolynomialCdga(Cdga):
    """Free graded-commutative algebra on generators, truncated by a
    per-generator weight; the truncation ideal must be differential-stable
    (generator differentials may not lower weight), so the truncation is an
    honest dg quotient.

    generators: (name, cohomological degree) or (name, cohdeg, weight).
    weights maps each basis monomial to its truncation weight, so the
    cells of _cells() are (truncation weight, degree).
    """

    def __init__(self, generators: Sequence[tuple], max_weight: int,
                 dgens: Optional[Mapping[str, GradedElement]] = None,
                 augmentation_gens: Optional[Mapping[str, Fraction]] = None,
                 check: str = "auto"):
        self.generators = []
        for g in generators:
            if len(g) == 2:
                name, cohdeg = g
                weight = 1
            else:
                name, cohdeg, weight = g
            self.generators.append((str(name), int(cohdeg), int(weight)))
        self.max_weight = max_weight
        self._gen_index = {n: i for i, (n, _, _) in enumerate(self.generators)}
        self._dgens = dict(dgens or {})
        self._aug_gens = dict(augmentation_gens) if augmentation_gens is not None else None

        monos = self._enumerate_monomials()
        self._label_of_mono: dict[tuple, str] = {}
        self._mono_of_label: dict[str, tuple] = {}
        basis: dict[int, list[str]] = {}
        self.weights: dict[str, int] = {}
        for weight, lab, mono in monos:
            deg = -self._mono_cohdeg(mono)
            self._label_of_mono[mono] = lab
            self._mono_of_label[lab] = mono
            basis.setdefault(deg, []).append(lab)
            self.weights[lab] = weight
        space = GradedVectorSpace(basis)

        for name, cohdeg, weight in self.generators:
            if weight > max_weight:
                # the generator and its differential are zero in the
                # truncation; a rebuild at a larger weight checks them
                continue
            val = self._dgens.get(name, GradedElement())
            for (d, lab), _ in val.coeffs.items():
                if d != -(cohdeg + 1):
                    raise CdgaAxiomViolation(
                        "d(%s) must be homogeneous of cohomological degree %d"
                        % (name, cohdeg + 1))
                if lab not in self.weights:
                    raise InvalidDifferential(
                        "d(%s) has the term %s, beyond the weight-%d truncation"
                        % (name, lab, max_weight))
                if self.weights[lab] < weight:
                    raise TruncationNotDgStable(
                        "d(%s) lowers truncation weight" % name)

        aug = None if self._aug_gens is None else self._evaluation(self._aug_gens)
        unit = GradedElement({(0, "1"): ONE})
        super().__init__(space, self._d_label_build, self._mult_labels_build, unit, aug, check)

    def _evaluation(self, values: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """The algebra map to Q with the given generator values (0 where
        none is given), extended multiplicatively: its nonzero values on
        the basis monomials."""
        out = {}
        for mono, lab in self._label_of_mono.items():
            val = ONE
            for gi, e in mono:
                a = values.get(self.generators[gi][0], ZERO)
                if self.generators[gi][1] != 0 and a:
                    raise CdgaAxiomViolation(
                        "augmentation nonzero on a nonzero-degree generator")
                val *= a ** e
                if not val:
                    break
            if val:
                out[lab] = val
        return out

    # monomials are tuples of (generator index, exponent), sorted by index

    def _enumerate_monomials(self):
        gens = self.generators
        # weight -> the monomials of that weight; a generator extends only
        # the weights it fits on, so a heavy one costs nothing per monomial
        by_weight: dict[int, list[tuple]] = {0: [()]}
        count = 1
        for i, (name, cohdeg, weight) in enumerate(gens):
            if cohdeg % 2:
                max_e = 1
            else:
                if weight < 1:
                    raise ValueError(
                        "even generator %r needs truncation weight >= 1" % name)
                max_e = self.max_weight // weight
            new = []
            for w0, monos in by_weight.items():
                for e in range(1, max_e + 1):
                    w = w0 + e * weight
                    if w > self.max_weight:
                        break
                    # counted before they are built, so the cap bounds memory
                    count += len(monos)
                    if count > freelie.BASIS_SIZE_CAP:
                        raise TruncationTooLarge(
                            "truncated basis would have at least %d elements (cap %d)"
                            % (count, freelie.BASIS_SIZE_CAP))
                    new.append((w, [mono + ((i, e),) for mono in monos]))
            for w, monos in new:
                by_weight.setdefault(w, []).extend(monos)
        # (weight, label) is unique, so the monomial itself is never compared
        return sorted((w, self._format(m), m)
                      for w, monos in by_weight.items() for m in monos)

    def _mono_cohdeg(self, mono) -> int:
        return sum(self.generators[i][1] * e for i, e in mono)

    def _format(self, mono) -> str:
        if not mono:
            return "1"
        parts = []
        for i, e in mono:
            name = self.generators[i][0]
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts)

    def monomial(self, pairs: Sequence[tuple[str, int]]) -> GradedElement:
        """Basis monomial from (generator name, exponent) pairs."""
        mono = tuple(sorted((self._gen_index[n], e) for n, e in pairs if e))
        lab = self._label_of_mono[mono]
        return GradedElement({(-self._mono_cohdeg(mono), lab): ONE})

    def generator_element(self, name: str) -> GradedElement:
        return self.monomial([(name, 1)])

    def _odd_letters(self, mono):
        return [i for i, e in mono if self.generators[i][1] % 2]

    def _merge_sign_and_mono(self, m1, m2):
        """Product of two monomials: None for zero (odd square), else
        (sign, merged monomial)."""
        odd1 = self._odd_letters(m1)
        odd2 = self._odd_letters(m2)
        if set(odd1) & set(odd2):
            return None
        inversions = 0
        for i in odd1:
            for j in odd2:
                if j < i:
                    inversions += 1
        d = {}
        for i, e in m1:
            d[i] = d.get(i, 0) + e
        for i, e in m2:
            d[i] = d.get(i, 0) + e
        merged = tuple(sorted(d.items()))
        return (-ONE if inversions % 2 else ONE), merged

    def _mult_labels_build(self, d1, l1, d2, l2) -> GradedElement:
        m1 = self._mono_of_label[l1]
        m2 = self._mono_of_label[l2]
        res = self._merge_sign_and_mono(m1, m2)
        if res is None:
            return GradedElement()
        sign, merged = res
        if self.weights[l1] + self.weights[l2] > self.max_weight:
            return GradedElement()
        lab = self._label_of_mono[merged]
        return GradedElement({(-self._mono_cohdeg(merged), lab): sign})

    def _d_label_build(self, n, lab) -> GradedElement:
        mono = self._mono_of_label[lab]
        letters = []
        for i, e in mono:
            letters.extend([i] * e)
        out: dict = {}
        prefix_parity = 0
        for p, gi in enumerate(letters):
            name, cohdeg, _w = self.generators[gi]
            dg = self._dgens.get(name, GradedElement())
            if not dg.is_zero():
                left = self._letters_elt(letters[:p])
                right = self._letters_elt(letters[p + 1:])
                _add_scaled(out, self.multiply(left, self.multiply(dg, right)),
                            -ONE if prefix_parity % 2 else ONE)
            prefix_parity += cohdeg
        return _element_of(out)

    def _letters_elt(self, letters) -> GradedElement:
        d = {}
        for i in letters:
            d[i] = d.get(i, 0) + 1
        mono = tuple(sorted(d.items()))
        lab = self._label_of_mono[mono]
        return GradedElement({(-self._mono_cohdeg(mono), lab): ONE})

    def rebuild(self, max_weight: int, check: str = "skip") -> "FreePolynomialCdga":
        return FreePolynomialCdga(self.generators, max_weight, self._dgens,
                                  self._aug_gens, check=check)


# ---------------------------------------------------------------------------
# Sullivan-de Rham forms
# ---------------------------------------------------------------------------

class DeRhamForms(FreePolynomialCdga):
    """Polynomial forms on the n-simplex in the affine chart t_0 = 1 - sum,
    truncated at total polynomial degree D (deg t_i = deg dt_i = 1).

    The differential preserves total degree, so the truncation is exact:
    within it H^0 = Q and H^k = 0 for 0 < k, with no edge classes.
    """

    def __init__(self, n: int, max_degree: int, check: str = "auto"):
        if n < 0 or max_degree < 1:
            raise ValueError("need n >= 0 and D >= 1")
        self.simplex_dim = n
        gens = []
        dgens = {}
        aug = {}
        for i in range(1, n + 1):
            gens.append(("t%d" % i, 0, 1))
            gens.append(("dt%d" % i, 1, 1))
            dgens["t%d" % i] = GradedElement({(-1, "dt%d" % i): ONE})
            aug["t%d" % i] = ZERO
        super().__init__(gens, max_degree, dgens, aug, check=check)


class CdgaMorphism:
    """Algebra map of free-polynomial cdgas, given on generators and
    extended multiplicatively; dg-compatibility is checked on generators."""

    def __init__(self, source: FreePolynomialCdga, target: Cdga,
                 images: Mapping[str, GradedElement], check: bool = True):
        self.source = source
        self.target = target
        self.images = dict(images)
        if check:
            name = self.non_dg_generator()
            if name is not None:
                raise CdgaAxiomViolation("morphism not dg on %s" % name)

    def non_dg_generator(self) -> Optional[str]:
        """The first generator on which the map does not commute with d,
        or None."""
        for name, _cohdeg, _w in self.source.generators:
            lhs = self.apply(self.source._dgens.get(name, GradedElement()))
            if not (lhs - self.target.d(self.images[name])).is_zero():
                return name
        return None

    def apply_label(self, lab: str) -> GradedElement:
        mono = self.source._mono_of_label[lab]
        out = self.target.unit
        for gi, e in mono:
            name = self.source.generators[gi][0]
            for _ in range(e):
                out = self.target.multiply(out, self.images[name])
        return out

    def apply(self, elt: GradedElement) -> GradedElement:
        return linear_combination((c, self.apply_label(lab))
                                  for (_, lab), c in elt.coeffs.items())


def omega_simplex(n: int, max_degree: int) -> DeRhamForms:
    return DeRhamForms(n, max_degree)


def omega_face_map(omega: DeRhamForms, face: int) -> CdgaMorphism:
    """Pullback along the face inclusion d^face: Delta^{n-1} -> Delta^n in
    the chart (t_1..t_n); the target is Omega(Delta^{n-1})."""
    n = omega.simplex_dim
    if n == 0:
        raise ValueError("no faces of a point")
    target = DeRhamForms(n - 1, omega.max_weight, check="skip")
    images = {}
    # vertices of the face are the vertices of Delta^n except `face`;
    # barycentric coordinate t_i pulls back to the coordinate of its
    # preimage vertex, and t_face pulls back to 0.
    for i in range(1, n + 1):
        if i == face:
            images["t%d" % i] = GradedElement()
            images["dt%d" % i] = GradedElement()
        else:
            j = i if i < face else i - 1
            if j == 0:
                # t_0 in the chart is 1 - sum of the rest
                images["t%d" % i] = linear_combination(
                    [(ONE, target.unit)] +
                    [(-ONE, target.generator_element("t%d" % k)) for k in range(1, n)])
                images["dt%d" % i] = linear_combination(
                    (-ONE, target.generator_element("dt%d" % k)) for k in range(1, n))
            else:
                images["t%d" % i] = target.generator_element("t%d" % j)
                images["dt%d" % i] = target.generator_element("dt%d" % j)
    return CdgaMorphism(omega, target, images)


def omega_degeneracy_map(omega: DeRhamForms, j: int) -> CdgaMorphism:
    """Pullback along the degeneracy s^j: Delta^{n+1} -> Delta^n collapsing
    the edge (j, j+1); the target is Omega(Delta^{n+1})."""
    n = omega.simplex_dim
    target = DeRhamForms(n + 1, omega.max_weight, check="skip")
    images = {}
    # vertex v of Delta^{n+1} maps to v if v <= j else v - 1; the pullback
    # of t_i is the sum of t_v over preimage vertices v, all of them >= 1
    # since i >= 1, so t_0 = 1 - sum of the rest never enters.
    for i in range(1, n + 1):
        pre = [v for v in range(n + 2) if (v if v <= j else v - 1) == i]
        images["t%d" % i] = linear_combination(
            (ONE, target.generator_element("t%d" % v)) for v in pre)
        images["dt%d" % i] = linear_combination(
            (ONE, target.generator_element("dt%d" % v)) for v in pre)
    return CdgaMorphism(omega, target, images)


# ---------------------------------------------------------------------------
# path objects
# ---------------------------------------------------------------------------

def path_object(a: Cdga, t_degree: int = 3):
    """D[t,dt] = D (x) k[t,dt] with |t| = 0, d(t) = dt, truncated at
    polynomial degree t_degree; returns (path, p0, p1, i) where p0, p1 are
    the evaluations at 0 and 1 and i the constant inclusion.

    p0, p1, i are returned as linear maps on basis labels (dicts
    label -> GradedElement into the factor / path algebra).
    """
    K = t_degree
    labels = {}
    basis: dict[int, list[str]] = {}
    for n, lab in a.basis_items():
        for k in range(K + 1):
            name = lab if k == 0 else "%s*t^%d" % (lab, k)
            basis.setdefault(n, []).append(name)
            labels[name] = (lab, n, k, 0)
        for k in range(K):
            name = "%s*t^%d*dt" % (lab, k) if k else "%s*dt" % lab
            basis.setdefault(n - 1, []).append(name)
            labels[name] = (lab, n, k, 1)
    space = GradedVectorSpace(basis)

    def name_of(lab, n, k, e):
        if e == 0:
            return lab if k == 0 else "%s*t^%d" % (lab, k)
        return "%s*t^%d*dt" % (lab, k) if k else "%s*dt" % lab

    def embed(elt: GradedElement, k, e) -> GradedElement:
        out = {}
        for (n, lab), c in elt.coeffs.items():
            out[(n - e, name_of(lab, n, k, e))] = c
        return GradedElement(out)

    def mult_fn(d1, l1, d2, l2):
        lab1, n1, k1, e1 = labels[l1]
        lab2, n2, k2, e2 = labels[l2]
        if e1 and e2:
            return GradedElement()
        # truncation keeps t^k for k <= K and t^k dt for k <= K-1
        k, e = k1 + k2, e1 + e2
        if e == 0 and k > K:
            return GradedElement()
        if e == 1 and k > K - 1:
            return GradedElement()
        prod = a.mult_labels(n1, lab1, n2, lab2)
        # sign: move t^{k1} dt^{e1} past the second table factor
        sign = -ONE if (e1 * n2) % 2 else ONE
        return embed(prod, k, e).scale(sign)

    def d_fn(n, name):
        lab, n0, k, e = labels[name]
        out = dict(embed(a.d(a.space.basis_element(n0, lab)), k, e).coeffs)
        if e == 0 and k >= 1:
            # d(t^k) = k t^(k-1) dt, moved past the table factor
            _add_scaled(out, GradedElement({(n0 - 1, name_of(lab, n0, k - 1, 1)): QQ(k)}),
                        -ONE if n0 % 2 else ONE)
        return _element_of(out)

    path = Cdga(space, d_fn, mult_fn, embed(a.unit, 0, 0), check="auto")

    p0 = {name: (a.space.basis_element(n0, lab)
                 if (k == 0 and e == 0) else GradedElement())
          for name, (lab, n0, k, e) in labels.items()}
    p1 = {name: (a.space.basis_element(n0, lab) if e == 0 else GradedElement())
          for name, (lab, n0, k, e) in labels.items()}
    inc = {lab: embed(a.space.basis_element(n, lab), 0, 0)
           for n, lab in a.basis_items()}
    return path, p0, p1, inc


def apply_linear(mapping: Mapping[str, GradedElement], elt: GradedElement) -> GradedElement:
    return linear_combination((c, mapping[lab]) for (_, lab), c in elt.coeffs.items())


# ---------------------------------------------------------------------------
# localization and idempotent splitting
# ---------------------------------------------------------------------------

def _check_localization_input(a: Cdga, u: GradedElement):
    if not a.d(u).is_zero():
        raise NonCocycle("localization requires a cocycle")
    deg = u.degree()
    if deg is not None and deg % 2:
        raise OddDegreeUnit(
            "invertible odd-degree elements exist only in the terminal algebra")


def localize(a: Cdga, u: GradedElement):
    """Localization A[u^-1] at an even-degree cocycle.

    Finite tables with |u| = 0 use the stabilized colimit of multiplication
    by u and return (localized cdga, localization map as a label dict);
    truncated free algebras (or any even |u| != 0) get the weakly
    equivalent cell model A[y, z] with d(z) = u*y - 1 and return
    (model, None).

    H(A[u^-1]) is the localization of H(A) at [u] (exactness), which
    localization_exactness_report verifies instance by instance on the
    colimit path.
    """
    _check_localization_input(a, u)
    deg = u.degree()
    if isinstance(a, FreePolynomialCdga):
        return localize_cell(a, u), None
    if not (deg is None or deg == 0):
        raise EvenDegreeUnit("the finite-table colimit model needs |u| = 0; "
                             "present the algebra as a truncated free cdga "
                             "for the cell model")
    # multiplication by u and its N-th power: u^N e_i spans the eventual
    # image, and u^N e_i in image coordinates is loc_map[e_i].  L_u is
    # applied N times rather than multiplying by the element u^N, since
    # associativity is only checked up to CDGA_TRIPLE_CAP
    mult_u = _multiplication(a, u)
    power = mult_u
    for _ in range(a.space.total_dim() - 1):
        power = mult_u.compose(power)
    counter = itertools.count()
    inclusion, image = _image_inclusion(power, lambda n, i: "loc%d" % next(counter))
    space = inclusion.source
    # u^-N on the eventual image: u^-N v is the y with u^N y = v.  u^N maps
    # the image into itself, so it is invertible there when it reaches
    # every basis vector
    pulled = power.compose(inclusion)
    if any(pulled.solve(v) is None for v in image.values()):
        raise LocalizationFailure("u is not invertible on the eventual image")

    def preimage(m: GradedLinearMap, elt: GradedElement) -> GradedElement:
        x = m.solve(elt)
        if x is None:
            raise LocalizationFailure("vector not in the eventual image")
        return x

    def mult_fn(d1, l1, d2, l2):
        return preimage(pulled, a.multiply(image[l1], image[l2]))

    def d_fn(n, lab):
        return preimage(inclusion, a.d(image[lab]))

    unit = preimage(inclusion, power.apply(a.unit))
    if space.total_dim() == 0:
        loc = Cdga(space, d_fn, mult_fn, GradedElement(), check="skip")
    else:
        loc = Cdga(space, d_fn, mult_fn, unit, check="auto")
    loc_map = {lab: preimage(inclusion, power.apply(a.space.basis_element(n, lab)))
               for n, lab in a.basis_items()}
    return loc, loc_map


def _multiplication(a: Cdga, u: GradedElement) -> GradedLinearMap:
    """Multiplication by u, of degree 0, as a map of A."""
    return GradedLinearMap.from_function(
        a.space, a.space, 0, lambda n, lab: a.multiply(u, a.space.basis_element(n, lab)))


def _image_inclusion(m: GradedLinearMap, name: Callable[[int, int], str]):
    """The inclusion of the image of a degree-0 map m, and the image of
    each label under it: degree by degree, the reduced echelon rows of m's
    columns in pivot order, the i-th of degree n labelled name(n, i)."""
    basis: dict[int, list[str]] = {}
    rows: dict[str, GradedElement] = {}
    for n in m.target.degrees():
        span = RowSpace(m.target.dim(n))
        for col in m.columns.get(n, ()):
            span._add(dict(col))
        labels = m.target.labels(n)
        for i, pc in enumerate(span.pivots):
            lab = name(n, i)
            basis.setdefault(n, []).append(lab)
            rows[lab] = GradedElement({(n, labels[j]): x
                                       for j, x in sorted(span._rows[pc].items())})
    return GradedLinearMap.from_function(GradedVectorSpace(basis), m.target, 0,
                                         lambda n, lab: rows[lab]), rows


def localize_cell(a: FreePolynomialCdga, u: GradedElement):
    """Cell model of the localization for a truncated free cdga: adjoin y
    (cohdeg -|u|) and z (cohdeg -1) with d(z) = u*y - 1, d(y) = 0, and
    truncate CELL_EXTRA_WEIGHT above a."""
    _check_localization_input(a, u)
    cohdeg_u = -(u.degree() or 0)
    gens = list(a.generators) + [("y", -cohdeg_u, 1), ("z", -1, 0)]
    target_weight = a.max_weight + CELL_EXTRA_WEIGHT
    scratch = FreePolynomialCdga(gens, target_weight, a._dgens, check="skip")
    uy = scratch.multiply(GradedElement(u.coeffs), scratch.generator_element("y"))
    dgens = dict(a._dgens)
    dgens["z"] = uy - scratch.unit
    out = FreePolynomialCdga(gens, target_weight, dgens,
                             a._aug_gens if a._aug_gens else None, check="auto")
    return out


def cohomology_algebra(a: Cdga):
    """H^0 as a Cdga in degree 0 with zero differential, basis h0..h{k-1}
    the classes of the representative cycles, together with those cycles:
    the algebra the idempotents of idempotent_split come from.  Its
    associativity is checked on every triple, whatever k."""
    h = a.homology()
    reps = h.representatives.get(0, [])
    k = len(reps)
    if k == 0:
        raise ZeroCohomology("H is zero in degree 0")
    labels = ["h%d" % i for i in range(k)]
    space = GradedVectorSpace({0: labels})

    def project(elt: GradedElement) -> GradedElement:
        x = h.class_of(elt, 0)
        if x is None:
            raise NonCocycle("element is not a cycle in degree 0")
        return space.from_vector(x, 0)

    table = {(labels[i], labels[j]): project(a.multiply(reps[i], reps[j]))
             for i in range(k) for j in range(k)}
    h0 = Cdga(space, None, lambda d1, l1, d2, l2: table[(l1, l2)], project(a.unit),
              check="skip")
    h0.verify_axioms(pair_cap=k, triple_cap=k)
    return h0, reps


def idempotent_split(a: Cdga):
    """Split a homologically disconnected cdga along the primitive
    idempotents of H^0: returns a list of (idempotent cocycle, factor,
    factor kind) where kind is "strict" (u*A, for non-negatively graded A)
    or "localization" (A[u^-1]).

    Raises NonSplitAlgebra (from the idempotent machinery) when H^0 is not
    a finite product of copies of Q.
    """
    h0, reps = cohomology_algebra(a)
    idems = algebra_idempotents(h0)
    nonneg = all(n <= 0 for n in a.space.degrees())
    factors = []
    for e in idems:
        u = linear_combination((c, reps[i]) for i, c in e.items())
        if nonneg and (a.multiply(u, u) - u).is_zero():
            factors.append((u, _strict_factor(a, u), "strict"))
        else:
            loc, _ = localize(a, u)
            factors.append((u, loc, "localization"))
    return factors


def _strict_factor(a: Cdga, u: GradedElement) -> Cdga:
    """The direct factor u*A of an exact idempotent u."""
    inclusion, image = _image_inclusion(_multiplication(a, u),
                                        lambda n, i: "f%d_%d" % (n, i))

    def to_factor(elt: GradedElement) -> GradedElement:
        x = inclusion.solve(elt)
        if x is None:
            raise CdgaAxiomViolation("element not in the factor")
        return x

    def mult_fn(d1, l1, d2, l2):
        return to_factor(a.multiply(image[l1], image[l2]))

    return Cdga(inclusion.source, lambda n, lab: to_factor(a.d(image[lab])), mult_fn,
                to_factor(u), check="auto")


def localization_exactness_report(a: Cdga, u: GradedElement,
                                  loc: Optional[Cdga] = None) -> dict:
    """Verify H(A[u^-1]) = H(A)[[u]^-1] per degree: the cohomology of the
    localization against the localization of the cohomology, compared as
    the eventual image of multiplication by [u] on H(A).  loc, when given,
    is localize(a, u)[0], already built by the caller."""
    if loc is None:
        loc, _ = localize(a, u)
    h_loc = loc.homology()
    h = a.homology()
    # localization of H(A) at [u]: eventual image of [u]-multiplication on
    # the finite graded algebra H(A)
    report = {}
    ok = True
    for n in sorted(set(h.degrees()) | set(h_loc.degrees())):
        rs = h.representatives.get(n, [])
        k = len(rs)
        vecs = [{i: ONE} for i in range(k)]
        for _ in range(k):
            new = []
            for v in vecs:
                x = h.class_of(a.multiply(
                    u, linear_combination((c, rs[i]) for i, c in v.items())), n)
                if x is None:
                    raise LocalizationFailure("u times a cycle is not a cycle "
                                              "in degree %d" % n)
                new.append(x)
            vecs = new
        image = RowSpace(k)
        for v in vecs:
            image._add(v)
        expected = image.dim()
        got = h_loc.dim(n)
        report[n] = {"H(A) localized": expected, "H(A[u^-1])": got}
        if expected != got:
            ok = False
    report["pass"] = ok
    return report


# ---------------------------------------------------------------------------
# tensor of a dgla with forms
# ---------------------------------------------------------------------------

def tensor_dgla_forms(g: Dgla, n: int, max_degree: int, check: str = "auto") -> Dgla:
    """g (x) Omega(Delta^n), a dgla with Omega^p (x) g_q in homological
    degree q - p; bracket [u(x)a, v(x)b] = (-1)^{|a||v|}[u,v](x)ab and
    d(u(x)a) = du(x)a + (-1)^{|u|} u(x)da."""
    omega = omega_simplex(n, max_degree)
    basis: dict[int, list[str]] = {}
    info = {}
    for ng, glab in g.basis_items():
        for nw, wlab in omega.basis_items():
            deg = ng + nw  # nw is -p for p-forms
            lab = "%s|%s" % (glab, wlab)
            basis.setdefault(deg, []).append(lab)
            info[lab] = (ng, glab, nw, wlab)
    space = GradedVectorSpace(basis)

    def pack(gelt: GradedElement, welt: GradedElement) -> GradedElement:
        # distinct label pairs are distinct basis labels: no sum collides
        return GradedElement({(ng + nw, "%s|%s" % (glab, wlab)): cg * cw
                              for (ng, glab), cg in gelt.coeffs.items()
                              for (nw, wlab), cw in welt.coeffs.items()})

    def bracket_fn(d1, l1, d2, l2):
        ng1, g1, nw1, w1 = info[l1]
        ng2, g2, nw2, w2 = info[l2]
        sign = -ONE if (nw1 * ng2) % 2 else ONE
        br = g.bracket_labels(ng1, g1, ng2, g2)
        prod = omega.mult_labels(nw1, w1, nw2, w2)
        if br.is_zero() or prod.is_zero():
            return GradedElement()
        return pack(br, prod).scale(sign)

    def d_fn(deg, lab):
        ng, glab, nw, wlab = info[lab]
        ge = g.space.basis_element(ng, glab)
        we = omega.space.basis_element(nw, wlab)
        return linear_combination([(ONE, pack(g.d(ge), we)),
                                   (-ONE if ng % 2 else ONE, pack(ge, omega.d(we)))])

    weights = None
    if g.weights is not None:
        weights = {lab: g.weights[info[lab][1]] for lab in info}
    out = Dgla(space, d_fn, bracket_fn, weights=weights,
               weight_bound=g.weight_bound, check=check)
    out.form_algebra = omega
    out.coefficient_dgla = g
    out.tensor_info = info
    return out


# ---------------------------------------------------------------------------
# derivations report
# ---------------------------------------------------------------------------

def derivations_report(a: Cdga, rebuilt: Optional[Cdga] = None) -> dict:
    """Per-degree dimensions of H(I/I^2) for the augmentation ideal I,
    reported by cohomological degree; this is the dual complex of the
    derivation space Der_eps(A, k).

    For truncated free algebras pass the D+1 rebuild as `rebuilt` to get
    stabilization flags.
    """
    if a.augmentation is None:
        raise NoAugmentation("derivations need an augmentation")

    def quotient_dims(alg: Cdga) -> dict[int, int]:
        items = alg.basis_items()
        ideal: dict[int, RowSpace] = {}
        for n in alg.space.degrees():
            ideal[n] = RowSpace(alg.space.dim(n))
        ivecs = []
        for n, lab in items:
            e = alg.space.basis_element(n, lab)
            v = e - alg.unit.scale(alg.eps(e))
            if not v.is_zero():
                ivecs.append((n, v))
        ibasis: dict[int, list[GradedElement]] = {}
        for n, v in ivecs:
            if ideal[n]._add(alg.space.to_vector(v, n)):
                ibasis.setdefault(n, []).append(v)
        # I^2
        sq: dict[int, RowSpace] = {n: RowSpace(alg.space.dim(n))
                                   for n in alg.space.degrees()}
        flat = [v for n in sorted(ibasis) for v in ibasis[n]]
        for v1, v2 in itertools.product(flat, repeat=2):
            p = alg.multiply(v1, v2)
            if p.is_zero():
                continue
            n = p.degree()
            sq[n]._add(alg.space.to_vector(p, n))
        # complex I/I^2: coordinates = I-basis reduced mod I^2
        quo_basis: dict[int, list[GradedElement]] = {}
        quo_coords: dict[int, Coordinates] = {}
        for n in alg.space.degrees():
            span = RowSpace(alg.space.dim(n))
            kept, rows = [], []
            for v in ibasis.get(n, []):
                r = sq[n]._reduce(alg.space.to_vector(v, n))
                if span._add(r):
                    kept.append(v)
                    rows.append(r)
            if kept:
                quo_basis[n] = kept
            quo_coords[n] = Coordinates(rows, alg.space.dim(n))
        # differential on I/I^2 and its homology, degreewise
        space = GradedVectorSpace({n: ["q%d_%d" % (n, i) for i in range(len(v))]
                                   for n, v in quo_basis.items()})

        def express(elt, n):
            if elt.is_zero():
                return GradedElement()
            x = quo_coords[n].coords(sq[n]._reduce(alg.space.to_vector(elt, n)))
            if x is None:
                raise CdgaAxiomViolation("element escapes the quotient I/I^2 "
                                         "in degree %d" % n)
            return space.from_vector(x, n)

        def d_fn(n, lab):
            img = alg.d(quo_basis[n][space.index(n, lab)])
            img = img - alg.unit.scale(alg.eps(img))
            return express(img, n - 1)

        d_map = GradedLinearMap.from_function(space, space, -1, d_fn)
        h = complex_homology(space, d_map)
        return {-n: h.dim(n) for n in h.degrees() if h.dim(n)}

    dims = quotient_dims(a)
    out = {"dims": dims}
    if rebuilt is not None:
        dims2 = quotient_dims(rebuilt)
        out["stable"] = {n: dims.get(n, 0) == dims2.get(n, 0)
                         for n in set(dims) | set(dims2)}
    return out
