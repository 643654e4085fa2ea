"""Golden trace for the checkpoint -> kill -> recover sequence.

One observability stream spans the whole life of the system — pre-crash
workload, the armed crash point, and the restarted instance's recovery
replay — so the golden file pins the exact event ordering of
``checkpoint_mark``/``checkpoint_write``, the torn write, the remount's
roll-forward, and ``recovery_replay``.  Crash simulation abandons every
in-memory object *except* the trace (a real operator's log survives the
machine it describes), which is what lets a single stream witness both
sides of the crash.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_recovery_trace.py --update-golden
"""

import json
import os

import pytest

from repro import obs
from repro.persist import (EV_CHECKPOINT_MARK, EV_CHECKPOINT_WRITE,
                           EV_RECOVERY_REPLAY)
from repro.persist.crashsim import CrashHarness, payload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "recovery_trace.json")


def run_workload():
    """Checkpoint, crash mid-migration, recover; returns the trace."""
    obs.reset()
    h = CrashHarness()
    h.commit("/pinned.dat", payload(101, 256 * 1024))
    # A completed migration first, so the golden stream also pins the
    # copy-out (segment_writeout / volume_switch) events and the scrub
    # ledger is non-empty at the crash epoch.
    h.migrate("/pinned.dat")
    h.run_phase("migration", 4, tear_blocks=1, seed=101)
    report = h.crash_and_recover()
    h.assert_acknowledged()
    reg = obs.metrics()
    headline = {
        "crash_fired": h.crashed,
        "recovery_found_image": report.found,
        "recovery_serial": report.serial,
        "checkpoint_writes": reg.get("checkpoint_writes_total"),
        "recovery_runs": reg.get("recovery_runs_total"),
        "requeued_writeouts": float(report.requeued_writeouts),
        "dropped_requests": float(report.dropped_requests),
        "final_virtual_time": h.app.time,
    }
    return {"headline": headline, "events": obs.trace().to_list()}


def test_recovery_trace_deterministic_across_runs():
    first = run_workload()
    second = run_workload()
    assert first["headline"] == second["headline"]
    assert first["events"] == second["events"]


def test_matches_golden_recovery_trace(update_golden):
    actual = run_workload()
    if update_golden:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"golden file regenerated at {GOLDEN_PATH}")
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(f"golden file missing: {GOLDEN_PATH}; run with "
                    "--update-golden to create it")
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert actual["headline"] == golden["headline"]
    assert len(actual["events"]) == len(golden["events"])
    for i, (got, want) in enumerate(zip(actual["events"], golden["events"])):
        assert got == want, f"event {i} diverged: {got} != {want}"


def test_recovery_trace_event_ordering():
    """The persistence taxonomy appears, in causal order: every mark
    precedes its write, and the recovery replay comes after the last
    pre-crash checkpoint."""
    result = run_workload()
    events = result["events"]
    types = [ev["type"] for ev in events]
    assert EV_CHECKPOINT_MARK in types
    assert EV_CHECKPOINT_WRITE in types
    assert EV_RECOVERY_REPLAY in types
    marks = [i for i, t in enumerate(types) if t == EV_CHECKPOINT_MARK]
    writes = [i for i, t in enumerate(types) if t == EV_CHECKPOINT_WRITE]
    assert len(marks) == len(writes)
    for m, w in zip(marks, writes):
        assert m < w, "a checkpoint image was written before its mark"
    replay = types.index(EV_RECOVERY_REPLAY)
    assert replay > writes[-1]
