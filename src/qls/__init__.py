"""Quantum linear systems: modelling, identification, absorbers and Fisher information.

The package models quantum linear systems (QLS) given by a scattering/squeezing
matrix S, a coupling matrix C and a quadratic Hamiltonian Omega, all in the
doubled-up representation acting on mode vectors [a; a#].  On top of the model
it provides

* transfer-function and power-spectrum evaluation,
* system-theoretic checks (stability, minimality, global minimality,
  physical realizability),
* reconstruction of physical realisations from transfer-function and
  power-spectrum data,
* coherent quantum absorber (dual system) synthesis,
* quantum Fisher information calculators for parameter families.
"""

from .algebra import (
    TOL_NUM,
    TOL_STRUCT,
    Delta,
    WilliamsonResult,
    du_blocks,
    factor_flat_gram,
    flat_adjoint,
    is_doubled_up,
    is_symplectic,
    jmat,
    sigma_swap,
    williamson,
)
from .model import (
    ParamFamily,
    QLSystem,
    StateSpace,
    check_pr,
    concatenate,
    default_grid,
    gauge_transform,
    is_hurwitz,
    is_minimal,
    series_product,
    spectral_gap,
    tf_equal,
    transfer_function,
)
from .stationary import (
    InputCovariance,
    StationaryState,
    is_globally_minimal,
    power_spectrum,
    ps_cascade_embedding,
    pure_mixed_split,
    solve_lyapunov,
)
from .realization import (
    RationalMatrixFunction,
    gilbert_realize,
    noisy_realize,
    nus_detect,
    passive_siso_cascade,
    physical_from_classical,
    ps_as_rational,
    ps_realize,
    siso_cascade_identify,
    tf_as_rational,
)
from .absorber import AbsorberResult, canonicalize_stationary, dual_system, verify_absorber
from .estimation import (
    QFIReport,
    coherent_qfi,
    destabilized_scaling_check,
    ensemble_coupling_profile,
    gauge_tangent_family,
    multiparam_noon_bounds,
    squeezed_coherent_qfi,
    stationary_qfi_rate_freq,
    stationary_qfi_rate_time,
)
from .sampling import random_pure_input, random_qlsystem, random_symplectic

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
