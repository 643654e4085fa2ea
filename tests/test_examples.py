"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them honest.
"""

import importlib.util
import pathlib


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "quickstart complete" in out
    assert "demand fetches" in out


def test_sequoia_satellite_archive(capsys):
    out = _run_example("sequoia_satellite_archive", capsys)
    assert "archive scenario complete" in out
    assert "prefetched" in out


def test_postgres_blockrange(capsys):
    out = _run_example("postgres_blockrange", capsys)
    assert "database scenario complete" in out
    assert "pages remain disk-resident" in out


def test_simulation_checkpoints(capsys):
    out = _run_example("simulation_checkpoints", capsys)
    assert "checkpoint scenario complete" in out
    assert "tertiary-resident generations" in out


def test_bakeoff(capsys):
    out = _run_example("bakeoff", capsys)
    assert "bake-off" in out
    assert "highlight" in out


def test_volume_reclamation(capsys):
    out = _run_example("volume_reclamation", capsys)
    assert "housekeeping scenario complete" in out
    assert "volumes reclaimed: 3" in out
    assert "filesystem consistent" in out
