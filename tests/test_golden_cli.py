"""The benchmark's contract with the program.  Its cli items (the README
examples, as text and as json, and three large dims tables) must print
exactly the stdout stored under perfbench/golden/cli, and its tracer must
find every method it names and wrap every name a traced run is expected to
hit, so that a renamed engine function fails here on every Python version.
A name that is wrapped but never hit is seen only by a traced run."""
import importlib.util
import inspect
import os
import sys

import pytest

from preproj import knitting, pathalg
from preproj.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, filename))
    module = importlib.util.module_from_spec(spec)
    # workloads.py defines dataclasses, which look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("perfbench_workloads", "workloads.py")
COMMANDS = workloads.cli_commands()


def test_every_cli_item_has_a_golden():
    assert len(COMMANDS) == 15
    for item_id, _ in COMMANDS:
        assert os.path.isfile(os.path.join(workloads.GOLDEN, "cli", f"{item_id}.out"))


@pytest.mark.parametrize("item_id, argv", COMMANDS, ids=[i for i, _ in COMMANDS])
def test_cli_stdout_matches_golden(item_id, argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    with open(os.path.join(workloads.GOLDEN, "cli", f"{item_id}.out"), "rb") as fh:
        golden = fh.read()
    assert (code, err) == (0, "")
    assert out.encode() == golden


def test_tracer_wraps_every_name_the_benchmark_expects():
    path = list(sys.path)
    try:
        # run.py puts perfbench/ on sys.path for its sibling modules
        run = load("perfbench_run", "run.py")
        tracer = load("perfbench_tracer", "tracer.py").Tracer()
    finally:
        sys.path[:] = path
    tracer.install()
    try:
        wrapped = set(tracer.calls) | set(tracer.sites)
        assert tracer.missing == []
        for workload, names in run.EXPECTED_HITS.items():
            assert [name for name in names if name not in wrapped] == [], workload
    finally:
        tracer.uninstall()
    for module in (pathalg, knitting):
        assert not [name for name, fn in vars(module).items()
                    if inspect.isfunction(fn) and hasattr(fn, "__wrapped__")]
    assert not hasattr(pathalg.QuotientModel.extend_to, "__wrapped__")
