"""Closed-form states of the bundled cubic system, the oracles of the
numerics tests.

The stencil symbols ``nu`` and ``mu`` make the semi-discrete plane wave an
exact solution of the spatially discretized cubic system, which isolates
time-integration error in convergence measurements.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from nlseverify.numerics import FieldState, Grid


def stencil_nu(k: float, dx: float) -> float:
    """Symbol of the first-derivative stencil: D1 e^{ikx} = i*nu(k) e^{ikx}."""
    return (8.0 * math.sin(k * dx) - math.sin(2.0 * k * dx)) / (6.0 * dx)


def stencil_mu(k: float, dx: float) -> float:
    """Symbol of the second-derivative stencil: D2 e^{ikx} = -mu(k) e^{ikx}."""
    return (30.0 - 32.0 * math.cos(k * dx) + 2.0 * math.cos(2.0 * k * dx)) / (
        12.0 * dx * dx
    )


def plane_wave_exact(
    grid: Grid,
    a: float,
    k: float,
    t: float,
    params: Mapping[str, float],
    dispersion: str = "continuum",
) -> FieldState:
    """Plane wave u + i v = a exp(i(kx - omega t)).

    ``dispersion="continuum"`` uses omega = beta*k - gamma*k^2 - delta*a^2;
    ``"discrete"`` replaces k and k^2 by the stencil symbols nu(k), mu(k),
    giving an exact solution of the semi-discretized system (useful as a
    time-integration oracle with zero spatial error).
    """
    beta, gamma, delta = params["beta"], params["gamma"], params["delta"]
    if dispersion == "continuum":
        omega = beta * k - gamma * k * k - delta * a * a
    elif dispersion == "discrete":
        omega = beta * stencil_nu(k, grid.dx) - gamma * stencil_mu(k, grid.dx) - delta * a * a
    else:
        raise ValueError(f"unknown dispersion {dispersion!r}")
    phase = k * grid.x - omega * t
    return FieldState(grid, t, (a * np.cos(phase), a * np.sin(phase)))


def rotate_state(state: FieldState, angle: float) -> FieldState:
    """Internal rotation (u, v) -> (u cos - v sin, u sin + v cos)."""
    ca, sa = math.cos(angle), math.sin(angle)
    u, v = state.fields
    return FieldState(state.grid, state.t, (ca * u - sa * v, sa * u + ca * v))
