"""The benchmark's names and commands, checked against the library: the
tracer still finds every function its named metrics read, and the ``cli``
workload's commands run without the per-branch and dense code paths."""

import importlib
from pathlib import Path

from corrspace import cli, protocols
from corrspace import qmath as qm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_named_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_cli_workload_commands_need_no_branch_run_projection_or_dense_operator(
    monkeypatch, capsys
):
    # the stacked branch walker and the Pauli expectations replace them: a
    # call to any of these fails the command (exit 1)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    def forbidden(*args, **kwargs):
        raise AssertionError("a cli workload command reached a forbidden code path")

    for owner, name in ((protocols.Program, "run"), (qm.StateVector, "project"),
                        (qm.DensityMatrix, "project"), (qm, "embed")):
        monkeypatch.setattr(owner, name, forbidden)
    commands = workloads.all_cli_commands()
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, (" ".join(argv), capsys.readouterr().err)
    capsys.readouterr()
