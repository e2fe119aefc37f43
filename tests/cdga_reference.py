"""The differential of a truncated free cdga as FreePolynomialCdga built it
before it ran on monomial tuples and ints: each monomial spelled out as a
list of letters, and for each letter x at position p the Fraction product
(-1)^(|letters before p|) (letters before p) * (d(x) * (letters after p))
of GradedElements, with its own product of monomials (odd squares vanish,
the sign counts the odd letters that pass each other, and a product over
the truncation weight is zero).  A test oracle for the Leibniz kernel
FreePolynomialCdga._d_mono, column by column for the int blocks of d that
it feeds, and for the CE complex's generator products.

Two reports as mclie computed them before they came down to ranks: the
derivations report on a labelled quotient complex I/I^2 with coordinates
of its own, and the localization exactness report by iterating [u] on the
classes k times per degree (k = dim H_n), on one linear combination at a
time.  And the evaluation of a truncated free cdga at generator values as
a Fraction product of powers on every monomial.

The truncated basis as FreePolynomialCdga built it before one walk both
counted and built it: _check_size counted the monomials, building
nothing, and _enumerate_monomials walked them again to build them."""

import itertools

from mclie import freelie
from mclie.cdga import (CdgaAxiomViolation, FreePolynomialCdga, LocalizationFailure,
                        _augmentation_ideal, localize)
from mclie.freelie import TruncationTooLarge
from mclie.linalg import (ONE, Coordinates, GradedElement, GradedLinearMap, GradedVectorSpace,
                          RowSpace, _accumulate, _element_of, homology, linear_combination)


def merge_reference(alg, m1, m2):
    """Product of two monomials of alg: None for zero (odd square), else
    (sign, merged monomial)."""
    odd1 = [i for i, _ in m1 if alg.generators[i][1] % 2]
    odd2 = [i for i, _ in m2 if alg.generators[i][1] % 2]
    if set(odd1) & set(odd2):
        return None
    inversions = sum(1 for i in odd1 for j in odd2 if j < i)
    d = {}
    for i, e in m1 + m2:
        d[i] = d.get(i, 0) + e
    return (-ONE if inversions % 2 else ONE), tuple(sorted(d.items()))


def monomial_element(alg, mono) -> GradedElement:
    cohdeg = sum(alg.generators[i][1] * e for i, e in mono)
    return GradedElement({(-cohdeg, alg._label_of_mono[mono]): ONE})


def multiply_reference(alg, u: GradedElement, v: GradedElement) -> GradedElement:
    out: dict = {}
    for (_, l1), c1 in u.coeffs.items():
        for (_, l2), c2 in v.coeffs.items():
            res = merge_reference(alg, alg._mono_of_label[l1], alg._mono_of_label[l2])
            if res is None or alg.weights[l1] + alg.weights[l2] > alg.max_weight:
                continue
            sign, merged = res
            _accumulate(out, monomial_element(alg, merged).coeffs, sign * c1 * c2)
    return _element_of(out)


def letters_element(alg, letters) -> GradedElement:
    d = {}
    for i in letters:
        d[i] = d.get(i, 0) + 1
    return monomial_element(alg, tuple(sorted(d.items())))


def leibniz_reference(alg, lab: str) -> GradedElement:
    """d of the basis monomial lab by the graded Leibniz rule, letter by
    letter on GradedElements."""
    letters = []
    for i, e in alg._mono_of_label[lab]:
        letters.extend([i] * e)
    out: dict = {}
    prefix_parity = 0
    for p, gi in enumerate(letters):
        name, cohdeg, _ = alg.generators[gi]
        dg = alg._dgens.get(name, GradedElement())
        if not dg.is_zero():
            left = letters_element(alg, letters[:p])
            right = letters_element(alg, letters[p + 1:])
            term = multiply_reference(alg, left, multiply_reference(alg, dg, right))
            _accumulate(out, term.coeffs, -ONE if prefix_parity % 2 else ONE)
        prefix_parity += cohdeg
    return _element_of(out)


def quotient_dims_reference(alg) -> dict[int, int]:
    """H(I/I^2) by cohomological degree, from the quotient complex: the
    I-basis reduced mod I^2, a Coordinates over what survives, d of each
    survivor expressed in it, and the homology of that complex."""
    plus, adjusted = _augmentation_ideal(alg)
    ibasis: dict[int, list[GradedElement]] = {}
    for n, lab in plus:
        ibasis.setdefault(n, []).append(adjusted[lab])
    sq = {n: RowSpace(alg.space.dim(n)) for n in alg.space.degrees()}
    flat = [v for n in sorted(ibasis) for v in ibasis[n]]
    for v1, v2 in itertools.product(flat, repeat=2):
        p = alg.multiply(v1, v2)
        if not p.is_zero():
            n = p.degree()
            sq[n]._add(alg.space.to_vector(p, n))
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
    space = GradedVectorSpace({n: ["q%d_%d" % (n, i) for i in range(len(v))]
                               for n, v in quo_basis.items()})

    def express(elt, n):
        if elt.is_zero():
            return GradedElement()
        x = quo_coords[n].coords(sq[n]._reduce(alg.space.to_vector(elt, n)))
        if x is None:
            raise CdgaAxiomViolation("element escapes the quotient I/I^2 in degree %d" % n)
        return space.from_vector(x, n)

    def d_fn(n, lab):
        img = alg.d(quo_basis[n][space.index(n, lab)])
        return express(img - alg.unit.scale(alg.eps(img)), n - 1)

    h = homology(space, GradedLinearMap.from_function(space, space, -1, d_fn))
    return {-n: h.dim(n) for n in h.degrees() if h.dim(n)}


def derivations_reference(a, rebuilt=None) -> dict:
    dims = quotient_dims_reference(a)
    out = {"dims": dims}
    if rebuilt is not None:
        dims2 = quotient_dims_reference(rebuilt)
        out["stable"] = {n: dims.get(n, 0) == dims2.get(n, 0) for n in set(dims) | set(dims2)}
    return out


def exactness_reference(a, u, loc=None) -> dict:
    """The localization exactness report, [u] applied k times per degree
    to each class as u times a combination of the representatives."""
    if loc is None:
        loc, _ = localize(a, u)
    h_loc, h = loc.homology(), a.homology()
    report = {}
    ok = True
    for n in sorted(set(h.degrees()) | set(h_loc.degrees())):
        rs = h.representatives(n)
        k = len(rs)
        vecs = [{i: ONE} for i in range(k)]
        for _ in range(k):
            new = []
            for v in vecs:
                x = h.class_of(a.multiply(
                    u, linear_combination((c, rs[i]) for i, c in v.items())), n)
                if x is None:
                    raise LocalizationFailure("u times a cycle is not a cycle in degree %d" % n)
                new.append(x)
            vecs = new
        image = RowSpace(k)
        for v in vecs:
            image._add(v)
        report[n] = {"H(A) localized": image.dim(), "H(A[u^-1])": h_loc.dim(n)}
        ok = ok and image.dim() == h_loc.dim(n)
    report["pass"] = ok
    return report


def evaluation_reference(alg, values):
    """FreePolynomialCdga._evaluation as a product of powers on every
    monomial, the nonzero-degree check on each factor before it."""
    out = {}
    for mono, lab in alg._label_of_mono.items():
        val = ONE
        for gi, e in mono:
            a = values.get(alg.generators[gi][0], 0)
            if alg.generators[gi][1] != 0 and a:
                raise CdgaAxiomViolation("augmentation nonzero on a nonzero-degree generator")
            val *= a ** e
            if not val:
                break
        if val:
            out[lab] = val
    return out


class MonomialsReference:
    """The two basis walks of FreePolynomialCdga, verbatim, on generators
    (name, cohdeg, weight) and a truncation weight:
    MonomialsReference(gens, w)._enumerate_monomials() is the sorted list
    of (weight, label, monomial), or raises what the count raised."""

    _format = staticmethod(FreePolynomialCdga._format)

    def __init__(self, generators, max_weight: int):
        self.generators = generators
        self.max_weight = max_weight

    @staticmethod
    def _check_size(generators, max_weight: int) -> None:
        """Count the truncated basis as _enumerate_monomials walks it,
        building nothing, and raise TruncationTooLarge once the count
        passes freelie.BASIS_SIZE_CAP."""
        by_weight = {0: 1}
        count = 1
        for name, cohdeg, weight in generators:
            if not cohdeg % 2 and weight < 1:
                raise ValueError("even generator %r needs truncation weight >= 1" % name)
            max_e = 1 if cohdeg % 2 else max_weight // weight
            new = []
            for w0, k in by_weight.items():
                for e in range(1, max_e + 1):
                    if w0 + e * weight > max_weight:
                        break
                    count += k
                    if count > freelie.BASIS_SIZE_CAP:
                        raise TruncationTooLarge(
                            "truncated basis would have at least %d elements (cap %d)"
                            % (count, freelie.BASIS_SIZE_CAP))
                    new.append((w0 + e * weight, k))
            for w, k in new:
                by_weight[w] = by_weight.get(w, 0) + k

    def _enumerate_monomials(self):
        gens = self.generators
        self._check_size(gens, self.max_weight)
        # weight -> the monomials of that weight; a generator extends only
        # the weights it fits on, so a heavy one costs nothing per monomial
        by_weight: dict[int, list[tuple]] = {0: [()]}
        for i, (name, cohdeg, weight) in enumerate(gens):
            max_e = 1 if cohdeg % 2 else self.max_weight // weight
            new = []
            for w0, monos in by_weight.items():
                for e in range(1, max_e + 1):
                    w = w0 + e * weight
                    if w > self.max_weight:
                        break
                    new.append((w, [mono + ((i, e),) for mono in monos]))
            for w, monos in new:
                by_weight.setdefault(w, []).extend(monos)
        # (weight, label) is unique, so the monomial itself is never compared
        return sorted((w, self._format(gens, m), m)
                      for w, monos in by_weight.items() for m in monos)
