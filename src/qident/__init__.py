"""qident: exact verification of q-series identities.

Truncated lattice sums (Nahm type), quantum dilogarithm products in
q-commuting variables, A-type quiver codimension identities, and jet-algebra
Hilbert series, all over exact integer/rational arithmetic.
"""

from .halfint import HalfInt
from .series import (
    QSeries,
    euler_product,
    inv_pochhammer,
    pochhammer,
    series_eq,
    series_leq,
)
from .poly import SparsePoly
from .nahm import (
    BudgetExceeded,
    CoercivityError,
    EnumerationBound,
    NahmSumSpec,
    build_B_form,
    build_Bprime_form,
    build_b2_char_form,
    build_b2_quintuple_form,
    build_cartan_side,
    build_d4_form,
    compute_bound,
    evaluate,
    expand_form_difference,
    verify_identity,
)
from .qweyl import (
    NCAlgebra,
    NCElement,
    LaurentQ,
    dilog,
    dilog_inv,
    extract_E,
    nc_eq,
    normal_order,
    ordered_product_check,
    pentagon_check,
)
from .quiver import (
    QuiverA,
    codim,
    dimension_vector,
    enumerate_reps,
    quiver_generating_series,
    verify_theorem51,
)
from .jets import (
    JetPoly,
    JetPreset,
    WeightedRing,
    apply_T,
    b2_A,
    b2_B,
    d4_D,
    generate_ideal,
    hilbert_series,
    sln_A,
    sln_B,
    sln_H,
    verify_classically_free,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
