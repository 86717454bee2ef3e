"""What the benchmark under perfbench/ needs of the package.

A traced benchmark run rebinds the functions named in the tracer's TARGETS
and the ``__post_init__`` of the traced classes, then times ``import
roelcke`` per module.  Any of these raising ends the run before it measures
anything, so the contract is checked here, on the package as it stands.
"""
import importlib.util
from pathlib import Path

import pytest

from roelcke import markov
from roelcke.markov import MarkovMatrix

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    # run.py imports its sibling modules by name.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return load("tracer"), load("run")


def test_tracer_installs_and_uninstalls(bench):
    tracer_mod, _ = bench
    original = markov.check_markov
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert markov.check_markov is not original
        MarkovMatrix.identity(2)
    finally:
        tracer.uninstall()
    assert markov.check_markov is original
    calls = tracer.layer_totals()
    assert calls["markov.MarkovMatrix"][0] == 1
    assert calls["markov.check_markov"][0] == 1


def test_import_breakdown_reports_each_module(bench):
    # Only that a number comes back: a module the package stops importing
    # may then read 0.
    _, run = bench
    seconds = run.import_breakdown()
    for name in ("roelcke", "sympy", "numpy"):
        assert isinstance(seconds[name], (int, float))
