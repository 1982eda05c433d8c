"""The experiment scripts in scripts/ run end to end and write their files."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

OUTPUTS = {
    "run_chi_scan": ["chi_scan.json", "chi_scan_config.json"],
    "run_interference_sweep": ["interference_sweep.csv", "interference_sweep.json"],
    "run_precession_demo": [
        "precession_classical.csv",
        "precession_quantum.csv",
        "sab-classical.json",
        "sab-quantum.json",
    ],
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert sorted(path.stem for path in SCRIPTS.glob("*.py")) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_script_runs_and_writes_its_files(tmp_path, capsys, name):
    outdir = tmp_path / "out"
    assert load_script(name).run(outdir) == 0
    assert sorted(path.name for path in outdir.iterdir()) == sorted(OUTPUTS[name])
    assert all((outdir / file).stat().st_size > 0 for file in OUTPUTS[name])
    assert "wrote" in capsys.readouterr().out
