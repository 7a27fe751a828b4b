"""Shared fixtures and a small seeded expression generator."""

from __future__ import annotations

import random

import pytest

from nlseverify.exprs import add, const, mul, pow_, var
from nlseverify.problem import load_problem
from nlseverify.reduction import build_canonical_transform, reduced_ode

# u_t + u_xxxx = 0 with six point fields: the translations x1, x2, the
# scaling x3 = 4t*dt + x*dx and x4 = u*du leave it invariant; x5 = 2t*dt + x*dx
# has the wrong weight and the Galilean boost x6 = t*dx is no symmetry.
FOURTH_ORDER_SYMMETRIES = (
    "[independents]\nt\nx\n[dependents]\nu\n"
    "[equations]\ng1 = u_t + u_xxxx\n[evolution]\nu_t = -u_xxxx\n[symmetries]\n"
    "x1_xi_t = 1\nx2_xi_x = 1\nx3_xi_t = 4*t\nx3_xi_x = x\nx4_eta_u = u\n"
    "x5_xi_t = 2*t\nx5_xi_x = x\nx6_xi_x = t\n"
)


@pytest.fixture(scope="session")
def problem():
    return load_problem()


@pytest.fixture(scope="session")
def printed_problem():
    return load_problem(printed=True)


@pytest.fixture(scope="session")
def system(problem):
    return problem.system


@pytest.fixture(scope="session")
def transform(system):
    return build_canonical_transform(system)


@pytest.fixture(scope="session")
def ode(transform):
    return reduced_ode(transform)


def random_expr(rng: random.Random, gens, depth: int):
    """Seeded polynomial expression over the given generators."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return const(rng.randint(-3, 3))
        return var(gens[rng.randrange(len(gens))])
    roll = rng.random()
    a = random_expr(rng, gens, depth - 1)
    if roll < 0.45:
        return add(a, random_expr(rng, gens, depth - 1))
    if roll < 0.9:
        return mul(a, random_expr(rng, gens, depth - 1))
    return pow_(a, rng.randint(2, 3))
