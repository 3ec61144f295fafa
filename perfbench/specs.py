"""Generating specs and sizes shared by the input generator and the runner.

Every workload uses two outputs and Q=2 latent forces.  The fitted or
evaluated model uses S=50 frequency samples (R = 2QS = 200 real feature
columns).
"""

from __future__ import annotations

from lfmrff.model import LfmSpec, MogpSpec, Ode1Params, Ode2Params, OdeOperator

FORCES = 2
SAMPLES = 50

# Row counts per size.  "tiny" exists only for the self-test (smoke.py).
SIZES = {
    "full": {"train": 2000, "heldout": 400, "large": 32000, "test": 20000, "variant": 8000},
    "tiny": {"train": 60, "heldout": 20, "large": 200, "test": 100, "variant": 100},
}

# P1 and P3 fit data drawn from TRUTH_ODE1; P2 fits data from TRUTH_ODE2.
TRUTH_ODE1 = LfmSpec(
    (Ode1Params(0.7), Ode1Params(2.5)),
    FORCES,
    [0.8, 2.0],
    [[1.0, 0.6], [0.5, 1.4]],
    [0.02, 0.02],
)
TRUTH_ODE2 = LfmSpec(
    (Ode2Params(1.0, 1.2, 2.5), Ode2Params(1.0, 3.0, 1.5)),
    FORCES,
    [0.8, 2.0],
    [[1.0, 0.6], [0.5, 1.4]],
    [0.02, 0.02],
)

# The large objective and predict_large: one ODE1 and one ODE2 output.
TRUTH_MIXED = LfmSpec(
    (Ode1Params(1.2), Ode2Params(1.0, 1.5, 3.0)),
    FORCES,
    [1.0, 2.0],
    [[1.0, 0.5], [0.8, 1.2]],
    [0.05, 0.05],
)

# objective_odep: an order-3 operator, (s + 1)(s^2 + s + 4), next to ODE2.
TRUTH_ODEP = LfmSpec(
    (OdeOperator((1.0, 2.0, 5.0, 4.0)), Ode2Params(1.0, 1.5, 3.0)),
    FORCES,
    [1.0, 2.0],
    [[1.0, 0.5], [0.8, 1.2]],
    [0.05, 0.05],
)

# objective_mogp: a convolved GP over R^2.
TRUTH_MOGP = MogpSpec(2, [2.0, 4.0], FORCES, [1.0, 1.5], [[1.0, 0.5], [0.8, 1.2]], [0.05, 0.05])
