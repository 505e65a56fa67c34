"""The experiment drivers in scripts/, loaded as modules and run at desk size."""

import argparse
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adversary_report_passes_on_the_real_counts(capsys):
    report = load_script("adversary_report")
    assert report.run(argparse.Namespace(qmax=4, kmax=3, wmax=3)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("qmax,kmax,expected", [(3, 2, "kierstead(2)"), (1, 3, "stacked(3, 2)")])
def test_adversary_report_returns_1_on_a_wrong_count(monkeypatch, capsys, qmax, kmax, expected):
    # the checks are plain ifs, so they hold under python -O as well
    report = load_script("adversary_report")
    monkeypatch.setattr(report, "first_fit_chains", lambda p, order: SimpleNamespace(chain_count=0))
    assert report.run(argparse.Namespace(qmax=qmax, kmax=kmax, wmax=2)) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected) and "used 0 chains" in err
