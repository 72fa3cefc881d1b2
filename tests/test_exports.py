import importlib
import math
import pkgutil

import numpy as np
import pytest

import hypq
from hypq.errors import DomainError

MODULES = ["hypq"] + [f"hypq.{m.name}" for m in pkgutil.iter_modules(hypq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


_C1 = hypq.Coupling(1.0)
_SP = hypq.SpectralPoint(0.4, -0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hypq.log_double_sine(complex(0.5, math.nan), hypq.Periods(1.0, 1.4)),
        lambda: hypq.log_double_sine(complex(0.5, math.inf), hypq.Periods(1.0, 1.4)),
        lambda: hypq.QuadSpec(max_nodes=math.nan),
        lambda: hypq.QuadSpec(truncation_safety=math.nan),
        lambda: hypq.pair_transform(hypq.KernelFamily.HYPERBOLIC, _C1, 0.3, 1 + 1j),
        lambda: hypq.pair_transform(hypq.KernelFamily.HYPERBOLIC, _C1, 0.3, np.array([1 + 1j])),
        lambda: hypq.pair_transform(hypq.KernelFamily.HYPERBOLIC, _C1, "x", 1.0),
        lambda: hypq.Coupling("1"),
        lambda: hypq.OperatorSpec(hypq.KernelFamily.HYPERBOLIC, 1, False, _C1, "x"),
        lambda: hypq.plane_wave("x", hypq.KernelFamily.HYPERBOLIC, _C1),
        lambda: hypq.psi_asymptotic(hypq.SpectralPoint(0.5, -0.5), hypq.PositionPoint(math.nan, 1.0), _C1),
        lambda: hypq.schrodinger_residual(_SP, hypq.PositionPoint(0.5, -0.5), _C1, h=0.0),
        lambda: hypq.momentum_residual(_SP, hypq.PositionPoint(0.5, -0.5), _C1, h=0.0),
    ],
    ids=[
        "log_double_sine-nan-imag",
        "log_double_sine-inf-imag",
        "QuadSpec-max_nodes-nan",
        "QuadSpec-truncation_safety-nan",
        "pair_transform-complex-v",
        "pair_transform-complex-v-array",
        "pair_transform-string-delta",
        "Coupling-string",
        "OperatorSpec-string-spectral",
        "plane_wave-string-label",
        "psi_asymptotic-nan-position",
        "schrodinger_residual-zero-step",
        "momentum_residual-zero-step",
    ],
)
def test_bad_input_is_domain_error(call):
    # a public call gives a finite value or a structured error, never a raw
    # Python exception or a silent NaN
    with pytest.raises(DomainError):
        call()
