"""The benchmark's layer tracer wraps package functions by name; every
name it lists must exist, or ``perfbench/run.py --trace 1`` would lose a
layer without an error."""

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
