"""Spectral laboratory for the continuous resonant system.

Coefficient-space simulator for the resonant cubic flow on three Hermite
bases (holomorphic chain, radial chain, single eigenspace), plus the
sampling and statistical machinery to test measure invariance, truncation
decay, sup-norm concentration, and tail bounds against closed-form anchors.
"""

__version__ = "0.1.0"

from .basis import (
    HOLOMORPHIC,
    RADIAL,
    BasisFamily,
    GridResolutionError,
    eigenspace,
    family_from_label,
    hermite_polyparts,
    laguerre_weighted,
    eval_basis,
    lp_norm,
    norm_decay_study,
)
from .coupling import (
    CouplingTensor,
    alpha_hol,
    build_tensor,
    load_tensor,
    oracle_coupling,
    proportionality_constant,
)
from .dynamics import (
    CoefficientState,
    IntegratorConfig,
    Projector,
    FlowKernel,
    NumericalError,
    evolve,
    spacetime_l4,
    state_from_dict,
    state_to_dict,
)
from .measures import (
    MeasureSpec,
    GibbsStallError,
    sample_ensemble,
    sample_gibbs_metropolis,
    tail_study,
)
from .invariance_lab import (
    ConfigError,
    EnsembleReport,
    ObservableSet,
    invariance_test,
    recurrence_experiment,
    cauchy_study,
    concentration_study,
)

__all__ = [
    "__version__",
    "HOLOMORPHIC",
    "RADIAL",
    "BasisFamily",
    "eigenspace",
    "family_from_label",
    "hermite_polyparts",
    "laguerre_weighted",
    "eval_basis",
    "lp_norm",
    "norm_decay_study",
    "CouplingTensor",
    "alpha_hol",
    "build_tensor",
    "load_tensor",
    "oracle_coupling",
    "proportionality_constant",
    "CoefficientState",
    "IntegratorConfig",
    "Projector",
    "FlowKernel",
    "GridResolutionError",
    "NumericalError",
    "evolve",
    "spacetime_l4",
    "state_from_dict",
    "state_to_dict",
    "MeasureSpec",
    "GibbsStallError",
    "sample_ensemble",
    "sample_gibbs_metropolis",
    "tail_study",
    "ConfigError",
    "EnsembleReport",
    "ObservableSet",
    "invariance_test",
    "recurrence_experiment",
    "cauchy_study",
    "concentration_study",
]
