"""Smoke runs of the scripts under ``scripts/``: each exits 0 and states its laws."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reokit.sim import Firing, Trace

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_seed_sweep_smoke():
    result = run_script("seed_sweep.py", "--seeds", "2", "--rounds", "6")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "seeds: 2, rounds each: 6" in out
    assert "(round-robin law held for every seed)" in out
    assert "alarm gating (pending notification required) held for every seed" in out


def test_seed_sweep_fails_on_ungated_fire_alarm(monkeypatch):
    # a fire alarm with no emergency alarm before it breaks the gating law
    spec = importlib.util.spec_from_file_location("seed_sweep", ROOT / "scripts" / "seed_sweep.py")
    seed_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(seed_sweep)
    steps = [
        Firing(1, frozenset({"fire_alarm"}), (), 0, 0),
        Firing(2, frozenset({"emergency_alarm"}), (), 0, 0),
    ]
    monkeypatch.setattr(seed_sweep, "simulate", lambda *args: Trace("rescue", 0, steps))
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", "--seeds", "1", "--rounds", "2"])
    with pytest.raises(SystemExit, match="fire alarm gating violated at seed 0"):
        seed_sweep.main()


# the trace above, swept in a fresh interpreter; argv[1] is the script's path
_UNGATED_SWEEP = """
import importlib.util, sys
from reokit.sim import Firing, Trace
spec = importlib.util.spec_from_file_location("seed_sweep", sys.argv[1])
seed_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seed_sweep)
steps = [
    Firing(1, frozenset({"fire_alarm"}), (), 0, 0),
    Firing(2, frozenset({"emergency_alarm"}), (), 0, 0),
]
seed_sweep.simulate = lambda *args: Trace("rescue", 0, steps)
sys.argv = ["seed_sweep.py", "--seeds", "1", "--rounds", "2"]
seed_sweep.main()
"""


def test_seed_sweep_laws_hold_without_asserts():
    # python -O strips assert statements, so the laws must not be asserts
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", _UNGATED_SWEEP, str(ROOT / "scripts" / "seed_sweep.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode != 0
    assert "fire alarm gating violated at seed 0" in result.stderr
    assert "held for every seed" not in result.stdout


def test_seed_sweep_negative_rounds_exits_two():
    result = run_script("seed_sweep.py", "--seeds", "0", "--rounds", "-1")
    assert result.returncode == 2
    assert "round cap must be >= 0" in result.stderr


def test_seed_sweep_negative_seeds_exits_two():
    result = run_script("seed_sweep.py", "--seeds", "-2", "--rounds", "3")
    assert result.returncode == 2
    assert "seed count must be >= 0" in result.stderr
    assert "held for every seed" not in result.stdout


def test_run_scenario_smoke():
    result = run_script("run_scenario.py", "--seed", "1")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "automaton: 96 states, 900 transitions" in out
    sections = out.split("--- ")[1:]
    assert len(sections) == 3
    canned, warned, checked = sections
    assert "warnings:   []" in canned and "failures:   []" in canned
    assert "warnings:   ['Warning(P((Very)BudgetConsuming))']" in warned
    assert "resolved:   []" in warned
    assert "resolved:   ['Warning(P((Very)BudgetConsuming))']" in checked
    assert all("violations: 0" in s for s in sections)
