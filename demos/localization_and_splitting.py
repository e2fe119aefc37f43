"""Localization of a cdga at a degree-0 cocycle is exact on cohomology,
and a homologically disconnected algebra splits into connected factors
along the primitive idempotents of H^0 -- the algebraic shadow of
decomposing a space into its components.
"""

from fractions import Fraction as Q

from mclie.linalg import GradedElement
from mclie.cdga import (
    FiniteTableCdga, idempotent_split, localization_exactness_report,
    localize, path_object, apply_linear,
)

e = GradedElement({(0, "e"): Q(1)})
a = FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1")

print("A = Q x Q; inverting the idempotent e = (1,0):")
loc, loc_map = localize(a, a.element("e"))
print("  A[e^-1] has dimension", loc.space.total_dim(), "and H^0 =",
      loc.cohomology_dims().get(0, 0))
print("  exactness:", localization_exactness_report(a, a.element("e"))["pass"])

print("\ninverting u = 0 gives the terminal algebra:")
loc0, _ = localize(a, GradedElement())
print("  dimension", loc0.space.total_dim(), "(1 = 0)")

print("\nidempotent splitting of Q x Q:")
for i, (u, f, kind) in enumerate(idempotent_split(a)):
    print("  factor %d (%s): idempotent %r, H^0 dim %d"
          % (i, kind, u, f.cohomology_dims().get(0, 0)))

print("\npath object A[t,dt]:")
path, p0, p1, inc = path_object(a, 3)
et = path.element("e|t1^2")
print("  p0(e t^2) =", apply_linear(p0, et), " p1(e t^2) =",
      apply_linear(p1, et))
print("  H(A[t,dt]) =", path.cohomology_dims(), "= H(A) =",
      a.cohomology_dims())
