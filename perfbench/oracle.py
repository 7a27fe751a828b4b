"""Expected outcome of every benchmark operation.

The verdict tables below are written by hand from the claims in the source
paper (13 exact identities, the 5 x 4 association matrix with 13 associated
pairs, the reduction factorization, the 12 candidate verdicts and the
four-quantity drift audit).  They are not produced by the program.

On top of the verdicts, the stdout of the exact symbolic commands is compared
byte for byte with the files in ``golden/``, captured from the program when
the benchmark was defined.  That is the determinism contract of the TSV
output: any change to an exact residual string shows up as a wrong answer.
Numeric residuals (``%.3e`` and drift values) are judged by verdict only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

PAIRS = ("pair1", "pair2", "pair3", "pair4")
VECTORS = ("t1", "t2", "t3", "t4")
SYMMETRIES = ("x1", "x2", "x3", "x4", "x5")

VERIFY_IDS = (
    [f"verify.multiplier.{p}" for p in PAIRS]
    + [f"verify.divergence.{p}.{t}" for p, t in zip(PAIRS, VECTORS)]
    + [f"verify.symmetry.{x}" for x in SYMMETRIES]
)

NOT_ASSOCIATED = {
    ("x1", "t4"), ("x2", "t4"), ("x4", "t1"), ("x4", "t3"),
    ("x5", "t1"), ("x5", "t2"), ("x5", "t3"),
}

CLASSIFY_VERDICTS = {
    "case1-const-u": "reduced-only",
    "case1-const-vneg": "reduced-only",
    "case1-const-vpos": "reduced-only",
    "case1-linear-phase": "exact",
    "case2-const-u": "reduced-only",
    "case2-const-vneg": "reduced-only",
    "case2-const-vpos": "reduced-only",
    "case2-const-phase": "neither",
    "case3-const-u": "suspect",
    "case3-const-vneg": "suspect",
    "case3-const-vpos": "suspect",
    "case3-travel-phase": "exact",
}

REDUCE_VERDICTS = {
    "reduce.jacobian": "pass",
    "reduce.density.t2": "info",
    "reduce.flux.t2": "info",
    "reduce.ode": "info",
    "reduce.phase-balance": "info",
    "reduce.curvature": "info",
    "reduce.factorization": "pass",
    "reduce.printed.t2_flux_printed": "info",
}

DRIFT_VERDICTS = {f"simulate.drift.Q{i}": "pass" for i in range(1, 5)}


@dataclass(frozen=True)
class Expected:
    """Exit code and verdict per check id, in output order."""

    exit_code: int
    verdicts: dict[str, str]
    golden: str | None = None  # file under golden/ holding the exact stdout

    def judge(self, code: int, stdout: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if code != self.exit_code:
            return f"exit {code}, expected {self.exit_code}"
        got = _verdicts(stdout)
        if got != self.verdicts:
            diff = sorted(
                k for k in got.keys() | self.verdicts.keys()
                if got.get(k) != self.verdicts.get(k)
            )
            return f"verdicts differ at {', '.join(diff[:4])}"
        if list(got) != list(self.verdicts):
            return "records out of order"
        if self.golden is not None and stdout != golden_text(self.golden):
            return f"stdout differs from golden/{self.golden}"
        return None


def _verdicts(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        fields = line.split("\t")
        out[fields[0]] = fields[2] if len(fields) == 5 else "<malformed>"
    return out


@cache
def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


VERIFY = Expected(0, {k: "pass" for k in VERIFY_IDS}, "verify.tsv")

VERIFY_PRINTED = Expected(
    2,
    {
        k: "pass" if k in ("verify.symmetry.x1", "verify.symmetry.x2") else "fail"
        for k in VERIFY_IDS
    },
    "verify_printed.tsv",
)

ASSOCIATE = Expected(
    0,
    {
        f"associate.{x}.{t}": (
            "not-associated" if (x, t) in NOT_ASSOCIATED else "associated"
        )
        for x in SYMMETRIES
        for t in VECTORS
    },
    "associate.tsv",
)

REDUCE = Expected(0, REDUCE_VERDICTS, "reduce.tsv")

CLASSIFY = Expected(0, {f"classify.{k}": v for k, v in CLASSIFY_VERDICTS.items()})

SIMULATE = Expected(0, DRIFT_VERDICTS)


def judge_reduce_printed(code: int, stdout: str) -> str | None:
    """The [printed] reduction is wrong by design: the program must refuse it
    with exit 1 or report it with ``fail`` records (exit 2)."""
    if code == 1:
        return None
    if code == 2 and "fail" in _verdicts(stdout).values():
        return None
    return f"exit {code}, expected 1, or 2 with fail records"

