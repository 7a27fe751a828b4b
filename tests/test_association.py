from __future__ import annotations

import pytest

from nlseverify.exprs import neg
from nlseverify.jets import association_residual, prolong
from nlseverify.normal import normalize

# Which (generator, vector) pairs satisfy the association identity.
# (x1, t2) and (x3, t2) are required associations; the full table is
# pinned so any change in the computation is visible.
ASSOCIATED = {
    ("x1", "t1"), ("x1", "t2"), ("x1", "t3"),
    ("x2", "t1"), ("x2", "t2"), ("x2", "t3"),
    ("x3", "t1"), ("x3", "t2"), ("x3", "t3"), ("x3", "t4"),
    ("x4", "t2"),
    ("x4", "t4"),
    ("x5", "t4"),
}


def associate(system, fieldv, vec):
    """The association residual of ``fieldv`` and ``vec``."""
    return association_residual(system, prolong(fieldv, system.ctx), vec)


def all_pairs(problem):
    for fieldv in problem.symmetries:
        for vec in problem.conserved:
            yield fieldv, vec


def test_association_matrix(problem, system):
    for fieldv, vec in all_pairs(problem):
        res = associate(system, fieldv, vec)
        is_assoc = all(nf.is_zero for nf in res.values())
        assert is_assoc == ((fieldv.label, vec.label) in ASSOCIATED), (
            fieldv.label,
            vec.label,
        )


def test_required_associations(problem, system):
    t2 = problem.conserved[1]
    for idx in (0, 2):
        res = associate(system, problem.symmetries[idx], t2)
        assert all(nf.is_zero for nf in res.values())


def test_scaling_acts_on_plain_energy_as_minus_itself(problem, system):
    """The x5 defect on t2 is exactly -t2, component by component."""
    t2 = problem.conserved[1]
    res = associate(system, problem.symmetries[4], t2)
    assert res["t"] == normalize(neg(t2.density))
    assert res["x"] == normalize(neg(t2.flux))


def test_space_translation_defect_on_moment_is_energy(problem, system):
    """x2 shifts the moment weight sigma = x - beta*t by one, so the
    defect on t4 is exactly +t2."""
    t2, t4 = problem.conserved[1], problem.conserved[3]
    res = associate(system, problem.symmetries[1], t4)
    assert res["t"] == normalize(t2.density)
    assert res["x"] == normalize(t2.flux)


def test_galilean_defect_on_energy_is_minus_energy(problem, system):
    res = associate(system, problem.symmetries[3], problem.conserved[0])
    t2 = problem.conserved[1]
    assert res["t"] == normalize(neg(t2.density))
    assert res["x"] == normalize(neg(t2.flux))


def test_residuals_are_deterministic(problem, system):
    fieldv, vec = problem.symmetries[4], problem.conserved[2]
    first = associate(system, fieldv, vec)
    second = associate(system, fieldv, vec)
    assert first == second
