"""Exact mod p^N machinery for congruence subgroups of SL(2):
residue and matrix arithmetic, exp/log maps, Lie lattices with elementary
divisors, the subalgebra approximation algorithm with optimality
certificates, mod-p and precision-N subgroup/subalgebra correspondences,
commutator volumes, and polynomial congruence counting.
"""

__version__ = "0.1.0"

from .core import (
    AMBIENT_DIM,
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ENUM_CAP,
    N0,
    GroupLevel,
    MatP,
    Modulus,
    SubgroupClosure,
    Valuation,
    closure_of_generators,
    closure_of_pool,
    group_level,
    in_principal_congruence,
    mat_inverse,
    residually_nilpotent,
    residually_unipotent,
)
from .explog import (
    NilpotentResidue,
    UnipotentResidue,
    exp_congruence,
    exp_congruence_classes,
    exp_extended,
    exp_trunc,
    log_congruence,
    log_extended,
    log_trunc,
)
from .lattice import (
    BASIS,
    STRUCTURE_CONSTANTS,
    LieLattice,
    SmithForm,
    bracket,
    is_subalgebra_mod,
    lattice_level,
    membership_mod,
    smith_form,
)
from .approx import (
    ApproxResult,
    annihilator_of_plane,
    approximate_sl2,
    group_certificate,
    lift_quadric,
    optimality_search,
    quadric_residual,
    select_r,
    trace_pairing_row,
    worst_case_subalgebra,
)
from .nori import (
    FpSubgroup,
    enumerate_unipotent_generated,
    grpc_bar,
    grpc_padic,
    h_plus,
    liec_bar,
    liec_padic,
    roundtrip_check_fp,
    roundtrip_check_padic,
    unipotent_elements,
)
from .volumes import (
    Gamma0Spec,
    GammaFullSpec,
    LevelFactorization,
    beta,
    c_delta,
    fixed_points_P1,
    lambda_p,
    phi_brute,
    phi_gamma0,
    unipotent_orbital_volume,
)
from .congcount import (
    IntPolynomial,
    bound_a6,
    count_affine,
    count_mod_p_on_sl2,
    parse_poly,
    schmidt_check,
)
