"""A cold command imports only what it uses: after the command line is
imported, the bundled file loaded both ways and the five exact commands
run, none of ``dataclasses``, ``inspect`` or ``json`` is loaded.  Only
``--json-out`` imports ``json``, and what it writes keeps its layout.  Each
check runs in a fresh interpreter, since this test process has all three
loaded already.  Without ``site`` (``-S``), which imports ``importlib.resources``
for some installed packages, the same commands leave that unloaded too: the
bundled file is read next to the package."""

from __future__ import annotations

import hashlib
import json
from importlib import resources

from test_numpy_free import run_fresh

COLD = """
import contextlib, io
import nlseverify.cli
from nlseverify.problem import load_problem

load_problem()
load_problem(printed=True)

def main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return nlseverify.cli.main(list(argv)), out.getvalue()

commands = (["verify"], ["associate"], ["reduce"], ["--printed-variants", "verify"],
            ["--printed-variants", "reduce"])
print([main(*argv)[0] for argv in commands])
print(sorted(m for m in ("dataclasses", "inspect", "json") if m in sys.modules))
code, tsv = main("--json-out", PATH, "verify")
print(code, "json" in sys.modules)
sys.stdout.write(tsv)
"""

FIELDS = ("check_id", "subject", "verdict", "residual", "anchor")


def test_exact_commands_leave_dataclasses_inspect_and_json_unloaded(tmp_path):
    path = tmp_path / "verify.json"
    codes, unwanted, json_run, *tsv = run_fresh(f"PATH = {str(path)!r}\n" + COLD)
    assert codes == "[0, 0, 0, 2, 2]"
    assert unwanted == "[]"
    assert json_run == "0 True"
    assert len(tsv) == 13
    records = [dict(zip(FIELDS, line.split("\t"), strict=True)) for line in tsv]
    expected = json.dumps({"command": "verify", "records": records}, indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected


NO_SITE = """
import contextlib, hashlib, io
import nlseverify.cli
from nlseverify.problem import bundled_problem_text, load_problem

load_problem()
load_problem(printed=True)
for argv in (["verify"], ["associate"], ["reduce"], ["--printed-variants", "verify"],
             ["--printed-variants", "reduce"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        nlseverify.cli.main(argv)
print("importlib.resources" in sys.modules)
print(hashlib.sha256(bundled_problem_text().encode()).hexdigest())
"""


def test_exact_commands_without_site_leave_importlib_resources_unloaded():
    loaded, digest = run_fresh(NO_SITE, ("-I", "-S"))
    assert loaded == "False"
    text = resources.files("nlseverify").joinpath("data/cubic_nlse.prob").read_text()
    assert digest == hashlib.sha256(text.encode()).hexdigest()
