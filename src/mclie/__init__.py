"""Exact-rational computer algebra for differential graded Lie algebras,
Maurer-Cartan spaces, Chevalley-Eilenberg and Harrison complexes, and the
localization machinery of homologically disconnected cdgas."""

from .linalg import (
    QQ,
    ChainComplex,
    DegreeMismatch,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    HomologyReport,
    NonSplitAlgebra,
    homology,
    idempotents,
    rational,
)
from .freelie import (
    FreeLieTruncation,
    LiePresentation,
    TruncationTooLarge,
    bch,
    build_basis,
)
from .dgla import (
    Dgla,
    NotMaurerCartan,
    NotNilpotent,
    abelian_dgla,
    adjoin_mc_variable,
    connected_cover,
    disjoint_product,
    dgla_from_table,
    f_xa_dgla,
    free_product_dgla,
    g_s_dgla,
    gauge_act,
    heisenberg_dgla,
    homology_stability,
    is_mc,
    mc_residual,
    sphere_dgla,
    twist,
    zero_dgla,
)
from .cdga import (
    Cdga,
    DeRhamForms,
    FiniteTableCdga,
    FreePolynomialCdga,
    derivations_report,
    idempotent_split,
    localize,
    omega_simplex,
    path_object,
    tensor_dgla_forms,
)
from .cehar import (
    ce_cohomology,
    ce_complex,
    compare_free_product,
    harrison,
    mc_augmentation_dictionary,
    minimal_model,
)
from .mc import (
    IncompleteSolve,
    SolveBudgetExhausted,
    derive_constraints,
    mc_simplices,
    mc_vertices,
    pi0_moduli,
    solve_structured,
    verify_component_decomposition,
    verify_theorem_f,
)

__version__ = "0.1.0"
