"""The differential of a truncated free cdga as FreePolynomialCdga built it
before it ran on monomial tuples and ints: each monomial spelled out as a
list of letters, and for each letter x at position p the Fraction product
(-1)^(|letters before p|) (letters before p) * (d(x) * (letters after p))
of GradedElements, with its own product of monomials (odd squares vanish,
the sign counts the odd letters that pass each other, and a product over
the truncation weight is zero).  A test oracle for the Leibniz kernel
FreePolynomialCdga._d_mono, column by column for the int blocks of d that
it feeds, and for the CE complex's generator products."""

from mclie.linalg import ONE, GradedElement, _accumulate, _element_of


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
