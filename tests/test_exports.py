import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypq
from hypq.errors import DomainError, GammaOverflowError, HypqError

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
        lambda: hypq.SpectralPoint("x", 0),
        lambda: hypq.PositionPoint("x", 0),
        lambda: hypq.QuadSpec(rel_tol="x"),
        lambda: hypq.QuadSpec(abs_tol=None),
        lambda: hypq.QuadSpec(max_nodes="9"),
        lambda: hypq.QuadSpec(truncation_safety="2"),
        lambda: hypq.DecayProfile("a", 1.0),
        lambda: hypq.DecayProfile(1, 1, "c"),
        lambda: hypq.RegSchedule(("a",), (1.0,)),
        lambda: hypq.RegSchedule(1.0, (1.0,)),
        lambda: hypq.Coupling(1.0, "x"),
        lambda: hypq.QuadSpec(rel_tol=math.inf),
        lambda: hypq.QuadSpec(abs_tol=math.inf),
        lambda: hypq.QuadSpec(max_nodes=math.inf),
        lambda: hypq.SpectralPoint("1.5", "nan"),
        lambda: hypq.OperatorSpec(hypq.KernelFamily.HYPERBOLIC, 1, False, _C1, math.nan),
        lambda: hypq.plane_wave(math.nan, hypq.KernelFamily.HYPERBOLIC, _C1),
        lambda: hypq.PositionPoint(math.nan, math.inf),
        lambda: hypq.QuadSpec(rel_tol=10**400),
        lambda: hypq.complex_gamma(10**400),
        lambda: hypq.Coupling(10**400),
        lambda: hypq.kernel_K(10**400, _C1),
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
        "SpectralPoint-string",
        "PositionPoint-string",
        "QuadSpec-rel_tol-string",
        "QuadSpec-abs_tol-none",
        "QuadSpec-max_nodes-string",
        "QuadSpec-truncation_safety-string",
        "DecayProfile-string-rate",
        "DecayProfile-string-center",
        "RegSchedule-string-entry",
        "RegSchedule-scalar",
        "Coupling-string-periods",
        "QuadSpec-rel_tol-inf",
        "QuadSpec-abs_tol-inf",
        "QuadSpec-max_nodes-inf",
        "SpectralPoint-numeric-string",
        "OperatorSpec-nan-spectral",
        "plane_wave-nan-label",
        "PositionPoint-non-finite",
        "QuadSpec-rel_tol-huge-int",
        "complex_gamma-huge-int",
        "Coupling-huge-int",
        "kernel_K-huge-int",
    ],
)
def test_bad_input_is_domain_error(call):
    # a public call gives a finite value or a structured error, never a raw
    # Python exception or a silent NaN
    with pytest.raises(DomainError):
        call()


_ANY = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


_FIELDS = {
    hypq.SpectralPoint: (_ANY, _ANY),
    hypq.PositionPoint: (_ANY, _ANY),
    hypq.Periods: (_ANY, _ANY),
    hypq.Coupling: (_ANY, _ANY),
    hypq.QuadSpec: (_ANY,) * 4,
    hypq.DecayProfile: (_ANY,) * 3,
    hypq.RegSchedule: (st.one_of(_ANY, st.lists(_ANY, min_size=1, max_size=3)),) * 2,
}


@pytest.mark.parametrize("record", list(_FIELDS), ids=lambda r: r.__name__)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_value_record_builds_or_raises_hypq_error(record, data):
    # a value record is built, or refused with a structured error, never a
    # raw Python exception
    args = data.draw(st.tuples(*_FIELDS[record]))
    try:
        record(*args)
    except HypqError:
        pass


def test_non_finite_position_is_named():
    # refused where it is given, not deep inside the wave-function integral
    with pytest.raises(DomainError, match="x1"):
        hypq.PositionPoint(math.nan, math.inf)


_P = hypq.Periods(1.0, math.sqrt(2.0))
_C08, _CREL = hypq.Coupling(0.8), hypq.Coupling(0.8, _P)
_H, _G, _R = hypq.KernelFamily

_SCALAR_CALLS = {
    "complex_gamma": (hypq.complex_gamma, 1),
    "log_complex_gamma": (hypq.log_complex_gamma, 1),
    "double_sine": (lambda z: hypq.double_sine(z, _P), 1),
    "log_double_sine": (lambda z: hypq.log_double_sine(z, _P), 1),
    "double_sine_asymptotic": (lambda z: hypq.double_sine_asymptotic(z, _P), 1),
    "b22": (lambda z: hypq.b22(z, _P), 1),
    "kernel_K": (lambda x: hypq.kernel_K(x, _C08), 1),
    "kernel_hatK": (lambda x: hypq.kernel_hatK(x, _C08), 1),
    "kernel_Kg": (lambda x: hypq.kernel_Kg(x, _CREL), 1),
    "eigenvalue-hyperbolic": (lambda s, l: hypq.eigenvalue(_H, s, l, _C08), 2),
    "eigenvalue-gamma": (lambda s, l: hypq.eigenvalue(_G, s, l, _C08), 2),
    "eigenvalue-relativistic": (lambda s, l: hypq.eigenvalue(_R, s, l, _CREL), 2),
    "measure-hyperbolic": (lambda a, b: hypq.measure(_H, a, b, _C08), 2),
    "measure-gamma": (lambda a, b: hypq.measure(_G, a, b, _C08), 2),
    "measure-relativistic": (lambda a, b: hypq.measure(_R, a, b, _CREL), 2),
    "hatK_asymptotic": (lambda base, mu: hypq.hatK_asymptotic(base, mu, _C08), 2),
}


@pytest.mark.parametrize("name", list(_SCALAR_CALLS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_scalar_call_returns_or_raises_hypq_error(name, data):
    # a scalar call at any argument, a string, None, NaN or +-inf among them,
    # returns a finite value or is refused with a structured error, never a
    # raw Python one
    fn, arity = _SCALAR_CALLS[name]
    args = data.draw(st.tuples(*(_ANY,) * arity))
    try:
        out = fn(*args)
    except HypqError:
        return
    assert np.isfinite(out), f"{name}{args} returned {out!r}"


@pytest.mark.parametrize(
    "name, args",
    [
        ("b22", (1e300,)),
        ("double_sine", (1e300 + 1e300j,)),
        ("complex_gamma", (200.0,)),
        ("measure-hyperbolic", (700.0, 0.1)),
        ("measure-gamma", (1e300, 0.0)),
        ("log_complex_gamma", (1.7e308,)),
        ("measure-relativistic", (1e3, 0.0)),
        ("hatK_asymptotic", (1.7e308, 30.0)),
        ("measure-hyperbolic", (0.0, 1.7e308)),
        ("measure-gamma", (0.0, 1.7e308)),
        ("measure-relativistic", (0.0, 1.7e308)),
    ],
)
def test_value_past_the_double_range_is_overflow_error(name, args):
    # a finite argument whose value leaves the double range is refused, not
    # returned as inf or nan
    with pytest.raises(GammaOverflowError):
        _SCALAR_CALLS[name][0](*args)


@pytest.mark.parametrize("family, c", [(_H, _C08), (_G, _C08), (_R, _CREL)], ids=["hyp", "gam", "rel"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_array_measure_past_the_double_range_is_inf(family, c, n, sign):
    # the measure grows without bound, so an array gives +inf where the
    # scalar call is refused; no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hypq.measure(family, np.zeros(n), np.full(n, sign * 1.7e308), c)
    assert out.shape == (n,) and np.all(out == np.inf)


@pytest.mark.parametrize(
    "name, args",
    [
        ("kernel_Kg", (1e200,)),
        ("kernel_Kg", (1e300,)),
        ("kernel_hatK", (1e200,)),
        ("kernel_hatK", (1.7e308,)),
        ("kernel_K", (1.7e308,)),
        ("eigenvalue-gamma", (1e300 + 1j, 0.0)),
    ],
)
def test_value_below_the_double_range_is_zero(name, args):
    # a kernel that underflows gives 0, as the real-axis evaluators do, with
    # no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _SCALAR_CALLS[name][0](*args) == 0
