"""The benchmark's layer tracer wraps package functions by name; every
name it lists must exist, and the hot path must call the wrapped
functions, or ``perfbench/run.py --trace 1`` would lose a layer without an
error."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, attr, span", load_targets())
def test_trace_target_resolves(modname, attr, span):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_tracer_sees_the_simulate_layers(capsys):
    """The per-layer numbers of ``simulate`` come from the wrapped
    functions; work moved out of them would read 0 without an error.  Ten
    RK4 steps of four stages, four stencils a stage (u_x, v_x, u_xx, v_xx),
    and the four densities sampled at t = 0 and after the tenth step, each
    integrated once, from one program run with the four stencils their
    jets need."""
    import nlseverify.cli as cli

    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code = cli.main(["simulate", "--T", "0.01"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.snapshot()
    assert code == 0
    assert counts["numerics.step_rk4_calls"] == 10
    assert counts["numerics.rhs_calls"] == 40
    assert counts["numerics.deriv_calls"] == 40 * 4 + 2 * 4
    assert counts["numerics.conserved_quantity_calls"] == 2 * 4
    assert counts["numerics.step_points"] == 10 * 256
