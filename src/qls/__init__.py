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

``import qls`` loads no submodule (nor numpy): each public name, and each
submodule named in ``__all__``, is imported on first use (PEP 562), so a
process loads only the modules it runs.
"""

import importlib

_EXPORTS = {  # submodule -> the public names it defines
    "algebra": ("TOL_NUM", "TOL_STRUCT", "Delta", "WilliamsonResult", "du_blocks", "factor_flat_gram",
                "flat_adjoint", "is_doubled_up", "is_symplectic", "jmat", "sigma_swap", "williamson"),
    "model": ("ParamFamily", "QLSystem", "StateSpace", "check_pr", "concatenate", "default_grid",
              "gauge_transform", "is_hurwitz", "is_minimal", "series_product", "spectral_gap",
              "tf_equal", "transfer_function"),
    "stationary": ("InputCovariance", "StationaryState", "is_globally_minimal", "power_spectrum",
                   "ps_cascade_embedding", "pure_mixed_split", "solve_lyapunov"),
    "realization": ("RationalMatrixFunction", "gilbert_realize", "noisy_realize", "nus_detect",
                    "passive_siso_cascade", "physical_from_classical", "ps_as_rational", "ps_realize",
                    "siso_cascade_identify", "tf_as_rational"),
    "absorber": ("AbsorberResult", "canonicalize_stationary", "dual_system", "verify_absorber"),
    "estimation": ("QFIReport", "coherent_qfi", "destabilized_scaling_check", "ensemble_coupling_profile",
                   "gauge_tangent_family", "multiparam_noon_bounds", "squeezed_coherent_qfi",
                   "stationary_qfi_rate_freq", "stationary_qfi_rate_time"),
    "sampling": ("random_pure_input", "random_qlsystem", "random_symplectic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's home module (or a submodule of ``__all__``) on first use and bind it here."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
