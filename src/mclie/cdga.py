"""Commutative dg algebras: finite multiplication tables and truncated free
graded-commutative presentations, Sullivan-de Rham forms on simplices,
localization at a cocycle, idempotent splitting, and tensors with
polynomial forms: one construction builds both the path object
A (x) Omega(Delta^1) and the dgla g (x) Omega(Delta^n).

Every cdga here is finite, so localization A[u^-1] at a degree-0 cocycle
and the strict factor u*A of an exact idempotent are one construction: the
algebra on the image of u^N, for N = dim A and N = 1 respectively.

Degrees are stored homologically (a cohomological degree n sits in
homological degree -n); constructors take cohomological degrees where that
is the natural reading and negate internally.  Truncated free algebras are
quotients by a dg ideal of high truncation weight, so all axioms hold
exactly on the truncation, with no edge caveats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .linalg import (
    ONE,
    ZERO,
    CertificateFailure,
    DegreeMismatch,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    InvalidArgument,
    McLieError,
    RowSpace,
    idempotents as algebra_idempotents,
    linear_combination,
    _DgAlgebra,
    _accumulate,
)
from . import freelie
from .dgla import Dgla
from .freelie import InvalidDifferential, TruncationTooLarge

CDGA_PAIR_CAP = 80
CDGA_TRIPLE_CAP = 26


class OddDegreeUnit(McLieError):
    """Inverting an odd-degree cocycle only yields the terminal algebra."""


class NonCocycle(McLieError):
    """The element is not a cocycle: localization requires du = 0, and only
    cocycles have classes in H."""


class ZeroCohomology(McLieError):
    """H vanishes in the requested degree, so it has no algebra structure
    to split (H^0 = 0 when the unit is a boundary)."""


class NoAugmentation(McLieError):
    """The operation needs an augmented cdga."""


class CdgaAxiomViolation(McLieError):
    """A cdga axiom failed on construction."""


class LocalizationFailure(McLieError):
    """A computed localization or strict factor contradicts its own
    construction."""


class EvenDegreeUnit(McLieError):
    """The colimit model inverts only cocycles of degree 0."""


class Cdga(_DgAlgebra):
    """Common interface: graded space (homological degrees), a differential
    (a GradedLinearMap, or d_fn(n, label)), lazy basis products
    mult_fn(deg1, label1, deg2, label2) (see _DgAlgebra), unit element,
    optional augmentation."""

    _SIGN = ONE
    _SYMMETRY = "graded commutativity"
    _TRIPLE_LAW = "associativity"
    _VIOLATION = CdgaAxiomViolation
    _TRIPLE_CAP = CDGA_TRIPLE_CAP

    def __init__(self, space: GradedVectorSpace,
                 d_fn: "GradedLinearMap | Callable[[int, str], GradedElement] | None",
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
        return _evaluate(self.augmentation, elt)

    def cohomology_dims(self) -> dict[int, int]:
        """Cohomological report: degree n is homological degree -n."""
        h = self.homology()
        return {-n: h.dim(n) for n in h.degrees() if h.dim(n)}

    # -- axioms ---------------------------------------------------------------

    def verify_axioms(self, pair_cap: int = CDGA_PAIR_CAP,
                      triple_cap: int = CDGA_TRIPLE_CAP) -> list[tuple[str, int, int]]:
        """The unit, then graded commutativity/Leibniz on basis pairs and
        associativity on basis triples within the given size caps, then the
        augmentation: zero off degree 0, a dg map, 1 on the unit and
        multiplicative on basis pairs; returns the laws the caps skipped (see
        _check_axioms)."""
        items = self.basis_items()
        pos = {key: p for p, key in enumerate(items)}
        # unit * e_p off the table rows of the unit's support
        rows = [(c, self._table_row(items, pos, pos[key]))
                for key, c in self.unit.coeffs.items()]
        for p, (_, lab) in enumerate(items):
            acc = {p: -ONE}
            for c, row in rows:
                _accumulate(acc, row[p], c)
            if acc:
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
            # eps vanishes off degree 0, so only pairs of degrees adding up
            # to 0 can break eps(uv) = eps(u) eps(v)
            aug = self.augmentation
            for d1, l1 in items:
                for l2 in self.space.labels(-d1):
                    if self.eps(self.mult_labels(d1, l1, -d1, l2)) != \
                            aug.get(l1, ZERO) * aug.get(l2, ZERO):
                        raise CdgaAxiomViolation(
                            "augmentation is not multiplicative on (%s, %s)" % (l1, l2))
        return skipped


def _evaluate(values: Mapping[str, Fraction], elt: GradedElement) -> Fraction:
    """The linear form with the given values on basis labels (0 where none
    is given), at elt."""
    s = ZERO
    for (_, lab), c in elt.coeffs.items():
        v = values.get(lab, ZERO)
        if v:
            s += c * v
    return s


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
        if degree_of[unit_label] != 0:
            raise DegreeMismatch("the unit %s is not in degree 0" % unit_label)
        full = self._mirror_filled(space, table)
        for lab, n in degree_of.items():
            full.setdefault((unit_label, lab), space.basis_element(n, lab))
            full.setdefault((lab, unit_label), space.basis_element(n, lab))
        differentials = differentials or {}
        unit = space.basis_element(0, unit_label)
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
    cells of its homology report are (truncation weight, degree) whenever
    d shifts every truncation weight alike.  d is built once, by the
    Leibniz rule on monomial tuples and ints over the lcm _den of the
    generator differentials' denominators, and handed over as int blocks.
    The basis comes from one walk, _monomials, which raises
    TruncationTooLarge at the cap as it builds; CEComplex calls it too.
    """

    def __init__(self, generators: Sequence[tuple], max_weight: int,
                 dgens: Optional[Mapping[str, GradedElement]] = None,
                 augmentation_gens: Optional[Mapping[str, Fraction]] = None,
                 check: str = "auto"):
        self.generators = freelie._read_generators(generators)
        self.max_weight = max_weight
        self._gen_index = {n: i for i, (n, _, _) in enumerate(self.generators)}
        self._odd = [cohdeg % 2 == 1 for _, cohdeg, _ in self.generators]
        self._dgens = dict(dgens or {})
        self._aug_gens = dict(augmentation_gens) if augmentation_gens is not None else None

        # (weight, label) is unique, so the monomial itself is never compared
        monos = sorted((w, self._format(self.generators, m), m)
                       for w, ms in self._monomials(self.generators, max_weight).items()
                       for m in ms)
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

        # the generator differentials inside the truncation, once, as
        # {generator index: [(monomial, int)]} over one denominator _den
        inside = {}
        for i, (name, cohdeg, weight) in enumerate(self.generators):
            if weight > max_weight:
                # the generator and its differential are zero in the
                # truncation; a rebuild at a larger weight checks them
                continue
            val = self._dgens.get(name, GradedElement())
            for (d, lab), _ in val.coeffs.items():
                if d != -(cohdeg + 1):
                    raise InvalidDifferential(
                        "d(%s) must be homogeneous of cohomological degree %d"
                        % (name, cohdeg + 1))
                if lab not in self.weights:
                    raise InvalidDifferential(
                        "d(%s) has the term %s, beyond the weight-%d truncation"
                        % (name, lab, max_weight))
                if self.weights[lab] < weight:
                    raise InvalidDifferential(
                        "d(%s) lowers truncation weight" % name)
            if val.coeffs:
                inside[i] = val.coeffs
        self._den = math.lcm(*(c.denominator for coeffs in inside.values()
                               for c in coeffs.values()))
        self._dgen_terms = {
            i: [(self._mono_of_label[lab], c.numerator * (self._den // c.denominator))
                for (_, lab), c in coeffs.items()]
            for i, coeffs in inside.items()}

        aug = None if self._aug_gens is None else self._evaluation(self._aug_gens)
        unit = GradedElement({(0, "1"): ONE})
        super().__init__(space, self._d_build(space), self._mult_labels_build, unit, aug, check)

    def _evaluation(self, values: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """The algebra map to Q with the given generator values (0 where
        none is given), extended multiplicatively: its nonzero values on
        the basis monomials.  A monomial stops at its first generator
        with value 0, before any power or product."""
        out = {}
        for mono, lab in self._label_of_mono.items():
            for gi, _ in mono:
                if not values.get(self.generators[gi][0]):
                    break
                if self.generators[gi][1] != 0:
                    raise CdgaAxiomViolation(
                        "augmentation nonzero on a nonzero-degree generator")
            else:
                val = ONE
                for gi, e in mono:
                    val *= values[self.generators[gi][0]] ** e
                out[lab] = val
        return out

    # monomials are tuples of (generator index, exponent), sorted by index

    @staticmethod
    def _monomials(generators, max_weight: int) -> dict[int, list[tuple]]:
        """weight -> the truncated basis monomials of that weight.  Each new
        list is counted before it is built, and TruncationTooLarge fires
        once the count passes freelie.BASIS_SIZE_CAP; a generator extends
        only the weights it fits on, so a heavy one costs nothing."""
        by_weight: dict[int, list[tuple]] = {0: [()]}
        count = 1
        for i, (name, cohdeg, weight) in enumerate(generators):
            if not cohdeg % 2 and weight < 1:
                raise InvalidArgument("even generator %r needs truncation weight >= 1" % name)
            max_e = 1 if cohdeg % 2 else max_weight // weight
            new = []
            for w0, monos in by_weight.items():
                for e in range(1, max_e + 1):
                    w = w0 + e * weight
                    if w > max_weight:
                        break
                    count += len(monos)
                    if count > freelie.BASIS_SIZE_CAP:
                        raise TruncationTooLarge(
                            "truncated basis would have at least %d elements (cap %d)"
                            % (count, freelie.BASIS_SIZE_CAP))
                    new.append((w, [mono + ((i, e),) for mono in monos]))
            for w, monos in new:
                by_weight.setdefault(w, []).extend(monos)
        return by_weight

    def _mono_cohdeg(self, mono) -> int:
        return sum(self.generators[i][1] * e for i, e in mono)

    @staticmethod
    def _format(generators, mono) -> str:
        """The label of a monomial over generators (name, cohdeg, weight):
        the unit 1, else name or name^e per letter, joined by *."""
        if not mono:
            return "1"
        parts = []
        for i, e in mono:
            name = generators[i][0]
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts)

    def monomial(self, pairs: Sequence[tuple[str, int]]) -> GradedElement:
        """Basis monomial from (generator name, exponent) pairs."""
        mono = tuple(sorted((self._gen_index[n], e) for n, e in pairs if e))
        lab = self._label_of_mono[mono]
        return GradedElement({(-self._mono_cohdeg(mono), lab): ONE})

    def generator_element(self, name: str) -> GradedElement:
        return self.monomial([(name, 1)])

    def _merge_sign_and_mono(self, m1, m2):
        """Product of two monomials: None for zero (odd square), else
        (sign, merged monomial), the int sign (-1)^(odd letters of m2 that
        pass an odd letter of m1)."""
        odd = self._odd
        merged = dict(m1)
        inversions = 0
        for j, e in m2:
            if odd[j]:
                if j in merged:
                    return None
                inversions += sum(1 for i, _ in m1 if i > j and odd[i])
            merged[j] = merged.get(j, 0) + e
        return (-1 if inversions % 2 else 1), tuple(sorted(merged.items()))

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

    def _d_build(self, space: GradedVectorSpace) -> GradedLinearMap:
        """d as int blocks over _den: each basis monomial's column from
        _d_mono, at the positions of its terms one degree below."""
        blocks = {}
        for n in space.degrees():
            blocks[n] = ([sorted((space.index(n - 1, self._label_of_mono[m]), v)
                                 for m, v in self._d_mono(self._mono_of_label[lab]).items())
                          for lab in space.labels(n)], self._den)
        return GradedLinearMap._from_blocks(space, space, -1, blocks)

    def _d_mono(self, mono) -> dict[tuple, int]:
        """_den d of a basis monomial by the graded Leibniz rule, as
        {monomial: int} on monomial tuples.  The letter x^e gives e terms
        (-1)^(|letters before x|) (before) d(x) (after) = e t (mono / x) per
        term t of d(x): the Koszul sign stays for odd x and cancels for even
        x, against moving the odd t to the front.  A product with an odd
        square, or over max_weight and so no basis monomial, is dropped."""
        acc: dict[tuple, int] = {}
        parity = 0
        for p, (i, e) in enumerate(mono):
            terms = self._dgen_terms.get(i)
            if terms:
                rest = mono[:p] + ((i, e - 1),) + mono[p + 1:] if e > 1 else \
                    mono[:p] + mono[p + 1:]
                scale = -e if parity and self._odd[i] else e
                for t, c in terms:
                    res = self._merge_sign_and_mono(t, rest)
                    if res is None or res[1] not in self._label_of_mono:
                        continue
                    sign, merged = res
                    v = acc.get(merged, 0) + sign * scale * c
                    if v:
                        acc[merged] = v
                    else:
                        del acc[merged]
            # an odd letter has exponent 1
            parity ^= self._odd[i]
        return acc

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
            raise InvalidArgument("need n >= 0 and D >= 1")
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
        raise InvalidArgument("no faces of a point")
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
# tensors with polynomial forms: the path object and g (x) Omega(Delta^n)
# ---------------------------------------------------------------------------

def _tensor_label(a: str, w: str) -> str:
    """The label of the basis element a (x) w of a tensor with forms."""
    return "%s|%s" % (a, w)


def _tensor_with_forms(alg: _DgAlgebra, omega: DeRhamForms,
                       product_labels: Callable[[int, str, int, str], GradedElement]):
    """alg (x) omega, with a (x) u in homological degree |a| + |u| (|u| is
    -p on p-forms): returns its space; info, each label's (|a|, a, |u|, u);
    the product (a(x)u)(b(x)v) = (-1)^{|u||b|} ab (x) uv, ab from alg's
    product_labels; the differential d(a(x)u) = da(x)u + (-1)^{|a|} a(x)du;
    and pack(x, y) = x (x) y."""
    basis: dict[int, list[str]] = {}
    info = {}
    for na, alab in alg.basis_items():
        for nw, wlab in omega.basis_items():
            lab = _tensor_label(alab, wlab)
            basis.setdefault(na + nw, []).append(lab)
            info[lab] = (na, alab, nw, wlab)
    space = GradedVectorSpace(basis)

    def pack(x: GradedElement, y: GradedElement) -> GradedElement:
        # distinct label pairs are distinct basis labels: no sum collides
        return GradedElement({(na + nw, _tensor_label(alab, wlab)): cx * cy
                              for (na, alab), cx in x.coeffs.items()
                              for (nw, wlab), cy in y.coeffs.items()})

    def product(d1, l1, d2, l2):
        na1, a1, nw1, w1 = info[l1]
        na2, a2, nw2, w2 = info[l2]
        ab = product_labels(na1, a1, na2, a2)
        uv = omega.mult_labels(nw1, w1, nw2, w2)
        if ab.is_zero() or uv.is_zero():
            return GradedElement()
        return pack(ab, uv).scale(-ONE if (nw1 * na2) % 2 else ONE)

    def d(deg, lab):
        na, alab, nw, wlab = info[lab]
        x = alg.space.basis_element(na, alab)
        u = omega.space.basis_element(nw, wlab)
        return linear_combination([(ONE, pack(alg.d(x), u)),
                                   (-ONE if na % 2 else ONE, pack(x, omega.d(u)))])

    return space, info, product, d, pack


def path_object(a: Cdga, t_degree: int = 3):
    """The path object A (x) Omega(Delta^1), forms truncated at polynomial
    degree t_degree >= 1 (InvalidArgument below it); returns (path, p0, p1, inc)
    where p0, p1 are the evaluations at t1 = 0 and t1 = 1 and inc, a |-> a (x) 1,
    the constant inclusion, each a dict label -> GradedElement (see
    apply_linear)."""
    omega = omega_simplex(1, t_degree)
    space, info, product, d, pack = _tensor_with_forms(a, omega, a.mult_labels)
    path = Cdga(space, d, product, pack(a.unit, omega.unit), check="auto")

    def evaluation(face: CdgaMorphism) -> dict[str, GradedElement]:
        # Omega(Delta^0) is spanned by its unit: a face map values each form
        value = {wlab: face.apply_label(wlab).coeff(0, "1") for _, wlab in omega.basis_items()}
        return {lab: a.space.basis_element(na, alab).scale(value[wlab])
                for lab, (na, alab, _, wlab) in info.items()}

    # face 1 sends t1 to 0 (vertex 0), face 0 sends t1 to 1 (vertex 1)
    p0, p1 = evaluation(omega_face_map(omega, 1)), evaluation(omega_face_map(omega, 0))
    inc = {lab: pack(a.space.basis_element(n, lab), omega.unit) for n, lab in a.basis_items()}
    return path, p0, p1, inc


def tensor_dgla_forms(g: Dgla, n: int, max_degree: int, check: str = "auto") -> Dgla:
    """g (x) Omega(Delta^n), a dgla with g_q (x) Omega^p in homological
    degree q - p (see _tensor_with_forms), weighted by g's weights."""
    omega = omega_simplex(n, max_degree)
    space, info, bracket, d, _ = _tensor_with_forms(g, omega, g.bracket_labels)
    weights = None
    if g.weights is not None:
        weights = {lab: g.weights[info[lab][1]] for lab in info}
    out = Dgla(space, d, bracket, weights=weights, weight_bound=g.weight_bound, check=check)
    out.form_algebra = omega
    out.coefficient_dgla = g
    out.tensor_info = info
    return out


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
    """Localization A[u^-1] at a degree-0 cocycle of a finite cdga (a
    table or a truncated free algebra): the stabilized colimit of
    multiplication by u, realized on the eventual image of u^N for N =
    dim A.  Returns (localized cdga, localization map as a label
    dict).  An even |u| != 0 is refused: no finite model is built for it.

    H(A[u^-1]) is the localization of H(A) at [u] (exactness), which
    localization_exactness_report verifies instance by instance.
    """
    _check_localization_input(a, u)
    deg = u.degree()
    if not (deg is None or deg == 0):
        raise EvenDegreeUnit("localization inverts cocycles of degree 0 only; "
                             "u has cohomological degree %d" % -deg)
    # u^N e_i spans the eventual image, and u^N e_i in image coordinates is
    # loc_map[e_i]
    counter = itertools.count()
    loc, to_image = _image_algebra(a, _eventual_power(a, u),
                                   lambda n, i: "loc%d" % next(counter))
    loc_map = {lab: to_image(a.space.basis_element(n, lab)) for n, lab in a.basis_items()}
    return loc, loc_map


def _eventual_power(a: Cdga, u: GradedElement) -> GradedLinearMap:
    """L_u^N for N = dim A (at least 1), L_u multiplication by u, by
    repeated squaring: the rank of L_u^k stops falling by k = dim A, so the
    image of L_u^N is the eventual image.  Powers of L_u are composed rather
    than the element u^N formed, since associativity is only checked up to
    CDGA_TRIPLE_CAP."""
    return _multiplication(a, u).power(max(a.space.total_dim(), 1))


def _multiplication(a: Cdga, u: GradedElement) -> GradedLinearMap:
    """Multiplication by u, of degree 0, as a map of A."""
    return GradedLinearMap.from_function(
        a.space, a.space, 0, lambda n, lab: a.multiply(u, a.space.basis_element(n, lab)))


def _image_algebra(a: Cdga, power: GradedLinearMap, name: Callable[[int, int], str]):
    """The cdga on the image of power, a degree-0 power u^N of
    multiplication by u, and the map x -> u^N x into it.  Its basis is, degree
    by degree, the reduced echelon rows of power's columns in pivot order,
    the i-th of degree n labelled name(n, i).  The product of v and w is the
    y with u^N y = v w, so u^N must be invertible on the image; d and the
    unit are read through the inclusion."""
    basis: dict[int, list[str]] = {}
    image: dict[str, GradedElement] = {}
    for n in power.target.degrees():
        for i, v in enumerate(power.image(n)):
            lab = name(n, i)
            basis.setdefault(n, []).append(lab)
            image[lab] = power.target.from_vector(v, n)
    space = GradedVectorSpace(basis)
    inclusion = GradedLinearMap.from_function(space, a.space, 0, lambda n, lab: image[lab])
    pulled = power.compose(inclusion)
    if any(pulled.solve(v) is None for v in image.values()):
        raise LocalizationFailure("u is not invertible on the image of u^N")

    def preimage(m: GradedLinearMap, elt: GradedElement) -> GradedElement:
        x = m.solve(elt)
        if x is None:
            raise LocalizationFailure("vector not in the image of u^N")
        return x

    def mult_fn(d1, l1, d2, l2):
        return preimage(pulled, a.multiply(image[l1], image[l2]))

    def d_fn(n, lab):
        return preimage(inclusion, a.d(image[lab]))

    def to_image(elt: GradedElement) -> GradedElement:
        return preimage(inclusion, power.apply(elt))

    return Cdga(space, d_fn, mult_fn, to_image(a.unit), check="auto"), to_image


def cohomology_algebra(a: Cdga):
    """H^0 as a Cdga in degree 0 with zero differential, basis h0..h{k-1}
    the classes of the representative cycles, together with those cycles:
    the algebra linalg.idempotents splits for idempotent_split.  Its
    associativity is checked on every triple, whatever k."""
    h = a.homology()
    reps = h.representatives(0)
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
    or "localization" (A[u^-1]).  linalg.idempotents finds those of H^0 by
    minimal polynomials and Lagrange interpolation, and each is lifted to
    the same combination of representative cocycles.

    Raises NonSplitAlgebra when H^0 is not a finite product of copies of Q:
    some minimal polynomial there has an irrational or repeated root.
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
    """The direct factor u*A of an exact idempotent u: the image algebra of
    multiplication by u, which acts as the identity there."""
    return _image_algebra(a, _multiplication(a, u), lambda n, i: "f%d_%d" % (n, i))[0]


def localization_exactness_report(a: Cdga, u: GradedElement,
                                  loc: Optional[Cdga] = None) -> dict:
    """Verify H(A[u^-1]) = H(A)[[u]^-1] per degree: the cohomology of the
    localization against the localization of the cohomology, the eventual
    image of multiplication by [u] on H(A).  [u]* is built once, as a
    degree-0 map on the classes of the representatives, raised to N = dim
    H(A) by squaring, and the image of [u]^N is read per degree.  loc, when
    given, is localize(a, u)[0], already built by the caller."""
    if loc is None:
        loc, _ = localize(a, u)
    h_loc = loc.homology()
    h = a.homology()
    classes = GradedVectorSpace({n: ["h%d" % i for i in range(h.dim(n))] for n in h.degrees()})

    def times_u(n, lab):
        x = h.class_of(a.multiply(u, h.representatives(n)[classes.index(n, lab)]), n)
        if x is None:
            raise LocalizationFailure("u times a cycle is not a cycle in degree %d" % n)
        return classes.from_vector(x, n)

    power = GradedLinearMap.from_function(classes, classes, 0, times_u).power(
        max(classes.total_dim(), 1))
    report = {n: {"H(A) localized": len(power.image(n)), "H(A[u^-1])": h_loc.dim(n)}
              for n in sorted(set(h.degrees()) | set(h_loc.degrees()))}
    report["pass"] = all(v["H(A) localized"] == v["H(A[u^-1])"] for v in report.values())
    return report


# ---------------------------------------------------------------------------
# derivations report
# ---------------------------------------------------------------------------

def _augmentation_ideal(a: Cdga):
    """A basis of the augmentation ideal A_+ of an augmented cdga: the
    items (n, lab) other than the unit slot, and each one's vector
    b - eps(b) 1.  The slot is the first label where eps and the unit are
    both nonzero; it exists as sum_b u_b eps(b) = eps(1) = 1, and dropping
    it leaves a basis."""
    items = a.basis_items()
    aug = a.augmentation or {}
    slot = next(((n, lab) for n, lab in items
                 if aug.get(lab, ZERO) and a.unit.coeff(n, lab)), None)
    if slot is None:
        raise NoAugmentation("no basis label where the augmentation and "
                             "the unit are both nonzero")
    plus = [key for key in items if key != slot]
    return plus, {lab: a.space.basis_element(n, lab) - a.unit.scale(aug.get(lab, ZERO))
                  for n, lab in plus}


def derivations_report(a: Cdga, rebuilt: Optional[Cdga] = None) -> dict:
    """Per-degree dimensions of H(I/I^2) for the augmentation ideal I,
    reported by cohomological degree; this is the dual complex of the
    derivation space Der_eps(A, k).

    Every number is a rank.  With r(n, X) = dim(I^2_n + span X) and the
    differential dbar(x) = dx - eps(dx) 1: (I/I^2)_n has dimension
    r(n, I_n) - r(n, {}), and dbar has rank r(n - 1, dbar I_n) - r(n - 1,
    {}) out of degree n.  Three certificates come first, each degree from
    the lowest up: dbar maps I into I + I^2 (else CdgaAxiomViolation,
    "escapes the quotient"), dbar maps I^2 into I^2 (else
    CdgaAxiomViolation), so that the ranks are those of a map on I/I^2,
    and dbar dbar vanishes on I/I^2 (else CertificateFailure naming the
    middle degree).

    For truncated free algebras pass the D+1 rebuild as `rebuilt` to get
    stabilization flags.
    """
    if a.augmentation is None:
        raise NoAugmentation("derivations need an augmentation")

    def quotient_dims(alg: Cdga) -> dict[int, int]:
        space, degrees = alg.space, alg.space.degrees()
        plus, adjusted = _augmentation_ideal(alg)
        ideal: dict[int, list[GradedElement]] = {n: [] for n in degrees}
        for n, lab in plus:
            ideal[n].append(adjusted[lab])
        products: dict[int, list] = {}
        flat = [v for n in degrees for v in ideal[n]]
        for v1, v2 in itertools.product(flat, repeat=2):
            p = alg.multiply(v1, v2)
            if not p.is_zero():
                n = p.degree()
                products.setdefault(n, []).append(space.to_vector(p, n))
        square = {n: RowSpace(space.dim(n), products.get(n, ())).rows() for n in degrees}

        def rank(n: int, elts) -> int:
            """r(n, elts), for elements of degree n."""
            return RowSpace(space.dim(n), square.get(n, []) +
                            [space.to_vector(e, n) for e in elts]).dim()

        def dbar(x: GradedElement) -> GradedElement:
            y = alg.d(x)
            return y - alg.unit.scale(alg.eps(y))

        image = {n: [dbar(v) for v in ideal[n]] for n in degrees}
        for n in degrees:
            below = ideal.get(n - 1, [])
            if rank(n - 1, below + image[n]) != rank(n - 1, below):
                raise CdgaAxiomViolation("element escapes the quotient I/I^2 "
                                         "in degree %d" % (n - 1))
        for n in degrees:
            if rank(n - 1, [dbar(space.from_vector(r, n)) for r in square[n]]) != \
                    len(square.get(n - 1, [])):
                raise CdgaAxiomViolation("d(I^2) leaves I^2 in degree %d" % (n - 1))
        for n in degrees:
            if rank(n - 2, [dbar(x) for x in image[n]]) != len(square.get(n - 2, [])):
                raise CertificateFailure("boundaries are not all cycles in degree %d" % (n - 1))
        quotient = {n: rank(n, ideal[n]) - len(square[n]) for n in degrees}
        out_rank = {n: rank(n - 1, image[n]) - len(square.get(n - 1, [])) for n in degrees}
        dims = {}
        for n in degrees:
            h = quotient[n] - out_rank[n] - out_rank.get(n + 1, 0)
            if quotient[n] and h:
                dims[-n] = h
        return dims

    dims = quotient_dims(a)
    out = {"dims": dims}
    if rebuilt is not None:
        dims2 = quotient_dims(rebuilt)
        out["stable"] = {n: dims.get(n, 0) == dims2.get(n, 0)
                         for n in set(dims) | set(dims2)}
    return out
