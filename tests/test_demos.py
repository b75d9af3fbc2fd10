"""The scripts in `demos/` run against the current API and print what
their docstrings promise."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# A line each demo's output must contain.
EXPECTED = {
    "aggregated_opening.py": ("proof is the identity point: False",
                              "-> accepted: True",
                              "tampered value accepted: False"),
    "churn_ablation.py": ("   vanilla ", "   batched ", "   grouped ",
                          "       pmp "),
    "storage_amortization.py": ("16 objects of 176 bytes, 44 bytes per "
                                "entry amortized",),
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for expected in EXPECTED[name]:
        assert expected in out, expected
