"""The demos run to the end; the skyrmion demo (about 40 s) runs in CI only."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_operators", "02_energy_dissipation",
                                  "03_convergence", "04_blowup"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
