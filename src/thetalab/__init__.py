"""Theta immersions of complex elliptic curves in P^(N-1).

Exact q-series arithmetic (Puiseux series over Q and cyclotomic
fields), rigorous numeric theta evaluation, the quadric systems cutting
out the degree-N curve, the finite projective representation attached
to even levels, and the explicit modular-curve models at levels 4-8.
"""

from .cyclotomic import CyclotomicNumber, cyc_embed_complex, cyc_inv, cyc_mul, zeta
from .series import PuiseuxSeries, eta_series
from .theta import (
    Characteristic,
    ThetaContext,
    jacobi_theta_eval,
    theta_N_eval,
    theta_half_eval,
    theta_null_series,
    theta_pq_eval,
    transform_check,
)
from .projective import (
    ProjectiveMatrix,
    ProjectivePoint,
    build_canonical_matrices,
    build_rep_generators,
    build_rho_bar,
    immersion_point,
    translation_check,
    verify_presentation,
)
from .quadrics import (
    NullData,
    QuadraticForm,
    gen_even_basis,
    gen_even_s_basis,
    gen_odd_basis,
    rank_check,
    verify_on_curve,
)
from .congruence import (
    SubgroupSpec,
    TorsionPoint,
    enum_structures_above,
    group_tower_check,
    subgroup_invariants,
    weil_pairing,
)
from .identities import (
    IdentityRecord,
    degenerate_fibers_level4,
    eta_quotient_check,
    hesse_check,
    quotient_model_check,
    theta_null_curve_check,
    weierstrass_check_level4,
)

__version__ = "0.1.0"
