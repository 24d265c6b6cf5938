"""The demos and the README's library example run to the end; the skyrmion
demo (about 40 s) runs in CI only."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_operators", "02_energy_dissipation",
                                  "03_convergence", "04_blowup"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_example_runs():
    # the first Python block under the README's "Library use" heading, as printed
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    result = namespace["result"]
    assert result.step == 100 and result.time == pytest.approx(1.0)
    assert not result.steady
