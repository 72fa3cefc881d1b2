"""Numerical toolkit for hyperbolic quantum many-body special functions.

Submodules: special functions (complex gamma, double sine), tolerance-driven
oscillatory quadrature, kernel/measure/eigenvalue functions of the three
commuting operator families, pointwise integral-operator application,
two-particle wave functions in both dual representations, and the named
identity-check suite behind the ``hypq`` command line tool.
"""

__version__ = "0.1.0"

from .kernels import (  # noqa: F401
    Coupling,
    KernelFamily,
    eigenvalue,
    hatK_asymptotic,
    kernel_hatK,
    kernel_K,
    kernel_Kg,
    measure,
)
from .operators import (  # noqa: F401
    Envelope,
    FunctionHandle,
    OperatorSpec,
    apply_Lambda,
    apply_Q,
    pair_transform,
    plane_wave,
    qq_convolution_kernel,
)
from .quad import (  # noqa: F401
    DecayProfile,
    QuadSpec,
    integrate_line,
    integrate_plane,
)
from .special import (  # noqa: F401
    Periods,
    b22,
    complex_gamma,
    double_sine,
    double_sine_asymptotic,
    log_complex_gamma,
    log_double_sine,
)
from .suite import CheckResult, RegSchedule, registry_names, run_suite  # noqa: F401
from .wavefn import (  # noqa: F401
    PositionPoint,
    SpectralPoint,
    dual_difference_residual,
    momentum_residual,
    psi_asymptotic,
    psi_factored,
    psi_hr,
    psi_mb,
    schrodinger_residual,
)
