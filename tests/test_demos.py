"""Every demo's `main()` runs in-process; demo 04 prints the tally the
README promises: 102 reports and no violation."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out
    if path.stem == "04_theorem_suite":
        assert "VIOLATION" not in out
        assert out.splitlines()[-1].startswith("102 reports in ")
