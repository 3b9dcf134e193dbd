"""Exact symbolic algebra for multiple t values and alternating multiple
zeta values, with an independent multiprecision numerical oracle."""

from .indexcore import (
    SignedIndex,
    basis_sets,
    enumerate_hoffman,
    enumerate_saha,
    from_int_word,
    to_int_word,
    zi,
)
from .symring import SymPoly, even_zeta, zeta_sym
from .wordalg import shuffle, stuffle, stuffle_compat_check, t_to_zeta, t_tilde_to_zeta
from .regularize import (
    rho_apply,
    sh_from_st,
    shift_param,
    shuffle_reg,
    st_via_sh0,
    stuffle_reg,
    t_st_from_sh,
    unshuffle_zeros,
    zeta_ones,
)
from .closedform import (
    eval_t12n,
    eval_t22,
    eval_t2212_sh,
    eval_t2212_star,
    eval_t2232,
    eval_t2232_tilde,
    eval_z2232,
    zbar_reduce,
)
from .motivic import (
    FiltMatrix,
    build_matrix,
    check_level,
    d1_project,
    deriv_D,
    deriv_D1_fast,
    deriv_D_star,
    det_mod2_structure,
    graded_partial,
    singular_lambda,
)
from .numoracle import (
    MPFloat,
    NumEnv,
    altz_num,
    altz_num_holder,
    digamma_A,
    digamma_B,
    eval_num,
    genseries_residual,
    lincomb_num,
    t_num,
    t_nums,
    t_star_a1_num,
)

__version__ = "0.1.0"
