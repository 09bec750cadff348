"""Run every example script in ``demos/`` in-process and check that it finishes."""

import runpy
from pathlib import Path

import pytest

DEMO_SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_every_demo_script_is_collected():
    assert [p.name[:2] for p in DEMO_SCRIPTS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("script", DEMO_SCRIPTS, ids=lambda p: p.stem)
def test_demo_script_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.rstrip().endswith("done.")
    assert "nan" not in out.lower()
