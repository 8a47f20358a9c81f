"""Every output check of the benchmark accepts the program's real output
and rejects a deliberately corrupted one.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import inputs  # noqa: E402


def flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


@pytest.fixture(autouse=True)
def no_store(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    monkeypatch.delenv("REPRO_NO_VEC", raising=False)
    yield
    from repro.engine import reset_engine

    reset_engine()


def test_estimate_check_rejects_one_flipped_float():
    from repro.engine import SweepEngine, build_plan
    from repro.engine.store import estimate_to_dict
    from repro.machine import XEON_MAX_9480

    job = build_plan(["miniweather"], [XEON_MAX_9480]).jobs[0]
    point = {"figure": "fig3", "app": job.app, "platform": "max9480",
             "config": job.config.label()}
    oracle = checks.oracle_estimates([point])
    # The vectorized path with the store on is what figures run through.
    vec = SweepEngine(use_cache=True, vectorize=True)
    est = vec.run_plan(build_plan([job.app], [XEON_MAX_9480]))[0].estimate
    got = json.loads(json.dumps(estimate_to_dict(est)))
    assert checks.check_points([{**point, "estimate": got}], oracle) == []

    bad = json.loads(json.dumps(got))
    bad["per_loop"][0]["time"] = flip_last_bit(bad["per_loop"][0]["time"])
    assert checks.check_points([{**point, "estimate": bad}], oracle)
    assert checks.check_points([{**point, "estimate": None}], oracle)


def test_row_checks_reject_one_flipped_float():
    rows = checks.oracle_rows(("fig1",))
    sample = {"fig1": [0, 1]}
    assert checks.check_rows(rows, rows, sample) == []
    bad = json.loads(json.dumps(rows))
    bad["fig1"][1][2] = flip_last_bit(bad["fig1"][1][2])
    assert checks.check_rows(bad, rows, sample)
    assert checks.check_same_rows(rows, [bad], "round")
    assert checks.check_same_rows(rows, [rows], "round") == []


def test_fidelity_check_needs_every_figure():
    figs = [f"fig{i}" for i in range(1, 10)]
    assert checks.check_fidelity(figs, 9) == []
    assert checks.check_fidelity(figs[:-1], 9)


def test_serve_check_rejects_one_changed_byte():
    plan = {"warm": [["miniweather", "max9480"]]}
    run_key = json.dumps(["/run", {"app": "miniweather", "platform": "max9480"}],
                         sort_keys=True)
    sweep_key = json.dumps(["/sweep", {"apps": ["miniweather"],
                                       "platforms": ["max9480"]}], sort_keys=True)
    expected = checks.expected_serve_bodies(plan, [run_key, sweep_key])
    assert '"status": "cached"' in expected[sweep_key]
    bodies = dict(expected)
    assert checks.check_serve([200, 200], bodies, [], expected) == []

    body = bodies[run_key]
    i = body.index('"total_time_s": ') + len('"total_time_s": ') + 2
    changed = body[:i] + chr(ord(body[i]) ^ 1) + body[i + 1:]
    assert checks.check_serve([200, 200], {**bodies, run_key: changed}, [],
                              expected)
    assert checks.check_serve([200, 429], bodies, [], expected)
    assert checks.check_serve([200], bodies, [run_key], expected)


def test_halo_check_rejects_one_altered_ghost_cell():
    """The real event-backend program on a small world passes; one ghost
    cell changed fails."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from child import _halo_program, _stats
    from repro.simmpi import CartGrid, World

    dims, interior, iters = (4, 2), (3, 3), 2
    field = np.random.default_rng(7).random((dims[0] * interior[0],
                                             dims[1] * interior[1]))
    grid = CartGrid(dims, periodic=(True, True))
    world = World(dims[0] * dims[1], backend="events")
    results = world.run(_halo_program(
        grid, inputs.rank_blocks(field, dims, interior), iters))
    totals = np.array([r[0] for r in results])
    locals_ = np.stack([r[1] for r in results])
    expected = checks.expected_halo_locals(field, dims, interior, iters)
    stats = _stats(world)
    assert checks.check_halo(totals, locals_, expected, stats, iters) == []

    bad = locals_.copy()
    bad[5, 0, 2] += 1e-9  # a ghost cell of rank 5
    assert checks.check_halo(totals, bad, expected, stats, iters)
    bad_totals = totals.copy()
    bad_totals[3] += 1
    assert checks.check_halo(bad_totals, locals_, expected, stats, iters)
    assert checks.check_halo(totals, locals_, expected,
                             {**stats, "messages": stats["messages"] - 1}, iters)


def test_dsl_check_rejects_one_perturbed_distributed_field():
    from repro.apps.cloverleaf import run_cloverleaf
    from repro.apps.mgcfd import run_mgcfd
    from repro.op2 import DistOp2Context
    from repro.ops import OpsContext
    from repro.simmpi import CartGrid, World

    spec = {"cloverleaf": {"dims": [2, 2], "domain": [12, 12], "iterations": 1},
            "mgcfd": {"nranks": 2, "domain": [8, 8, 8], "iterations": 1}}
    serial = checks.serial_dsl(spec)
    cl = World(4).run(lambda comm: run_cloverleaf(
        OpsContext(comm=comm, grid=CartGrid((2, 2))), (12, 12), 1, init="sod"))
    mg = World(2).run(lambda comm: run_mgcfd(DistOp2Context(comm), (8, 8, 8), 1))
    dist = {"density": cl[0]["density"], "energy_field": cl[0]["energy_field"],
            "velocity": np.stack(cl[0]["velocity"]),
            "mass": np.array([r["mass"] for r in cl]), "q": mg[0]["q"],
            "residual": np.stack([np.asarray(r["residual"]) for r in mg])}
    assert checks.check_dsl(dist, serial) == []

    for name, idx, delta in (("density", (3, 4), None), ("q", (10, 1), 1e-9),
                             ("mass", (1,), 1e-9)):
        bad = {k: v.copy() for k, v in dist.items()}
        if delta is None:
            bad[name][idx] = flip_last_bit(float(bad[name][idx]))
        else:
            bad[name][idx] *= 1 + delta
        assert checks.check_dsl(bad, serial), name


def test_serve_plan_depends_on_the_seed_alone():
    a, b = inputs.serve_plan(5), inputs.serve_plan(5)
    assert a == b and a != inputs.serve_plan(6)
    assert len(a["steps"]) == inputs.SERVE_STEPS
    assert all(len(step) == 2 for step in a["steps"])
    fresh = {tuple(f) for f in a["fresh"]}
    assert not fresh & {tuple(w) for w in a["warm"]}
