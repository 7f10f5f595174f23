"""The published examples run to the end against the current library."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["eigensystem_tour.py", "heat_kernel_basics.py",
                                  "multiplier_localization.py",
                                  "interval_simplex_transfer.py",
                                  "geometry_and_green.py", "gaussian_bounds_scan.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
