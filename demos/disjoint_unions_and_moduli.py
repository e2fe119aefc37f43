"""Disjoint products of dg Lie algebras as models of disjoint unions.

The 2-dimensional dgla spanned by x and [x,x] (|x| = -1, dx = -1/2 [x,x])
models the 0-sphere: it is acyclic, yet its Maurer-Cartan set has two
points.  Disjoint products (g * s)^x * h glue such base points onto
arbitrary models, and pi_0 of the MC space counts components.
"""

from mclie.dgla import (
    abelian_dgla, disjoint_product, g_s_dgla, heisenberg_dgla,
    homology_stability, sphere_dgla, zero_dgla,
)
from mclie.mc import mc_vertices, pi0_moduli, verify_theorem_f

s = sphere_dgla()
print("sphere dgla basis:", dict(s.space.basis))
print("homology:", s.homology().as_dict(), "(acyclic)")
_, _, vertices = mc_vertices(s)
print("MC vertices:", sorted(map(repr, vertices)), "-> two points, as S^0\n")

g = g_s_dgla(3, 2)
moduli = pi0_moduli(g)
print("free dgla on 3 square-zero generators: pi_0 =", moduli.count(),
      "classes (the discrete space on 3 points plus a base point)\n")

line = abelian_dgla({0: ["a"]})
gu0 = disjoint_product(line, zero_dgla(), 4)
flags = homology_stability(gu0)
print("abelian line u 0: stable homology cells all vanish:")
for n in sorted(flags):
    print("  H_%d = %d  [%s]" % (n, flags[n]["dim"],
                                 "stable" if flags[n]["stable"] else "edge"))
print()

report = verify_theorem_f([heisenberg_dgla(), abelian_dgla({0: ["z"]})], 4)
print("pi_0(heisenberg u line) =", report["moduli_product"],
      "= %s (disjoint union of the factor moduli)" %
      "+".join(map(str, report["moduli_factors"])))
print("Theorem F verdict:", "PASS" if report["pass"] else "FAIL")
