"""The Chevalley-Eilenberg functor on dglas and the Harrison functor on
augmented cdgas, with the two-point algebra as the basic dictionary entry:
the Harrison complex of Q x Q is the sphere dgla on the nose, and the
free-product formula C(g * h) = C(g) x_k C(h) holds cell by cell in the
faithful weight window.
"""

from fractions import Fraction as Q

from mclie.linalg import GradedElement
from mclie.cdga import FiniteTableCdga
from mclie.dgla import abelian_dgla, heisenberg_dgla
from mclie.cehar import (
    ce_cohomology, compare_free_product, harrison, harrison_product_comparison,
)

print("CE cohomology of the Heisenberg algebra (exact window):")
for n, cell in sorted(ce_cohomology(heisenberg_dgla(), 3, (1, 3)).items()):
    print("  H^%d = %d  [%s]" % (n, cell["dim"], cell["flag"]))

e = GradedElement({(0, "e"): Q(1)})
two_points = FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1",
                             augmentation={"1": Q(1), "e": Q(0)})
h = harrison(two_points, 2).dgla
tau = h.element("T(e)")
print("\nHarrison complex of Q x Q: generators", dict(h.space.basis))
print("  d T(e) =", h.d(tau), " (the sphere differential)")

report = harrison_product_comparison(two_points, two_points, 3)
print("\nL(A x B) = L(A) u L(B) for A = B = Q x Q:",
      "PASS" if report["bijective"] else "FAIL")

print("\nfree-product cohomology, Heisenberg * line, weights < 4:")
rep = compare_free_product(heisenberg_dgla(), abelian_dgla({0: ["z"]}), 4)
for (w, n), cell in sorted(rep["cells"].items()):
    if cell["product"] or cell["factors"]:
        print("  weight %d, degree %d: product %d = factors %d"
              % (w, n, cell["product"], cell["factors"]))
print("verdict:", "PASS" if rep["pass"] else "FAIL")
