"""Closed-form solutions of the model's elementary special cases, the oracles
the integrator and the estimators are checked against.

Each takes a time grid ``t`` (an array) and measures time from its first
stamp, y(t[0]) = eta.  The logistic dy/dt = a y + b y^2 is the Bernoulli case
gamma = 2.
"""

import numpy as np


def gm11_closed_form(a, beta, eta, t):
    """y and x = dy/dt of GM(1,1), dy/dt = a y + beta with y(t_1) = eta."""
    tau = t - t[0]
    return eta * np.exp(a * tau) + beta * np.expm1(a * tau) / a, (a * eta + beta) * np.exp(a * tau)


def bernoulli_closed_form(a, b, gamma, eta, t):
    """y and x = dy/dt of dy/dt = a y + b y^gamma with y(t_1) = eta (INGBM in grey
    form): u = y^(1 - gamma) solves the linear du/dt = (1 - gamma)(a u + b).
    u is monotone, and y is NaN from where u reaches zero: y hits zero there
    for gamma < 1 and has a pole for gamma > 1."""
    tau, k = t - t[0], (1.0 - gamma) * a
    u = eta ** (1.0 - gamma) * np.exp(k * tau) + b * (1.0 - gamma) * np.expm1(k * tau) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(u > 0.0, u ** (1.0 / (1.0 - gamma)), np.nan)
        return y, a * y + b * y ** gamma
