"""Empirically pinned thresholds for asymptotic and limit checks.

Where an identity is exact, its tolerance is stated directly by the check.
Trend/limit checks compare against an asymptotic or regulated form whose
finite-parameter error has no closed-form constant, so each threshold below
was pinned from a calibration run of the independent oracle route (value
recorded as ``observed``), kept below the documented acceptance ceiling and
above the observation by a platform margin.
"""

DERIVED_THRESHOLDS: dict[str, dict] = {
    # |Khat(gamma-mu) - asymptote| / |asymptote| at mu = 40, gamma = 0, g = 1.5
    "hatK_asymptotic_mu40": {
        "threshold": 1.0e-3,
        "observed": 3.91e-5,
        "oracle": "direct kernel_hatK evaluation at mu in {40, 80}",
        "ceiling": 5.0e-2,
    },
    # |psi - two-plane-wave asymptote| / |asymptote| at x2 - x1 = 8, g = 1,
    # spectral separation 1.0
    "psi_asymptotic_dx8": {
        "threshold": 5.0e-6,
        "observed": 1.125e-7,
        "oracle": "psi_hr via adaptive quadrature against the closed form",
        "ceiling": 1.0e-2,
    },
    # final relative deviations of the five reduction trends at the last
    # schedule point (default schedules in check_reduction)
    "reduction_Kg_to_hatK": {
        "threshold": 5.0e-3,
        "observed": 2.71e-4,
        "oracle": "kernel_Kg at scaled coupling vs closed gamma-side form",
        "ceiling": 5.0e-2,
    },
    "reduction_Kgstar_to_K": {
        "threshold": 2.0e-4,
        "observed": 8.46e-6,
        "oracle": "kernel_Kg at dual scaled coupling vs 2^-g cosh^-g",
        "ceiling": 5.0e-2,
    },
    "reduction_beta_reduction_1": {
        "threshold": 2.0e-3,
        "observed": 1.07e-4,
        "oracle": "double-sine ratio vs 2^-g cosh^-g(pi z / omega1)",
        "ceiling": 5.0e-2,
    },
    "reduction_beta_reduction_2": {
        "threshold": 7.0e-4,
        "observed": 3.29e-5,
        "oracle": "double_sine at scaled argument vs gamma closed form",
        "ceiling": 5.0e-2,
    },
    "reduction_S2_to_gamma": {
        "threshold": 2.0e-4,
        "observed": 8.22e-6,
        "oracle": "double_sine at large omega2 vs complex_gamma",
        "ceiling": 5.0e-2,
    },
    # delta-sequence finals at the default paired schedules; the deviation is
    # dominated by the deterministic epsilon damping 1 - e^(-eps L)
    "delta_n1_g1": {
        "threshold": 4.5e-2,
        "observed": 3.92e-2,
        "oracle": "adaptive quadrature at (L, eps) = (40, 1e-3)",
        "ceiling": 5.0e-2,
    },
    "delta_n1_general": {
        "threshold": 4.5e-2,
        "observed": 3.94e-2,
        "oracle": "adaptive quadrature at (G, eps) = (40, 1e-3), g = 1.5",
        "ceiling": 5.0e-2,
    },
    "delta_n2_vandermonde": {
        "threshold": 9.0e-2,
        "observed": 3.92e-2,
        "oracle": "products of one-particle quadratures at (L, eps) = (40, 5e-4)",
        "ceiling": 1.0e-1,
    },
    # conjecture-level power form, tested against a test function vanishing
    # at coincident arguments (its domain of use)
    "delta_n2_power": {
        "threshold": 9.0e-2,
        "observed": 3.83e-2,
        "oracle": "products of one-particle quadratures at (G, eps) = (40, 5e-4), g = 0.8",
        "ceiling": 1.0e-1,
    },
    # two-variable kernel degenerating to the raising kernel at y2 = 14, g = 1
    "q_to_lambda_y14": {
        "threshold": 1.0e-4,
        "observed": 1.1e-11,
        "oracle": "pointwise kernel evaluation at y2 in {6, 10, 14}",
        "ceiling": 1.0e-4,
    },
}


def derived_threshold(name: str) -> float:
    return float(DERIVED_THRESHOLDS[name]["threshold"])
