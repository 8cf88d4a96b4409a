"""The benchmark's cli items (the README examples, as text and as json, and
three large dims tables) must print exactly the stdout stored under
perfbench/golden/cli."""
import importlib.util
import os
import sys

import pytest

from preproj.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
# the module defines dataclasses, which look their module up by name
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)

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
