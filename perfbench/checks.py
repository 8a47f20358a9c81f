"""Output checks of every workload, each against a computation made apart
from the code path under test.

Each ``check_*`` function returns a list of error strings (empty when the
output is correct), so that ``tests/test_checks.py`` can show that every
check rejects a corrupted result.  The ``oracle_*`` and ``expected_*``
functions build the reference values in the benchmark's own process:
the scalar ``estimate_app`` with the vectorizer and the store off, the
serve payload builders over the harness with no server, and serial DSL
runs.
"""

from __future__ import annotations

import json

import numpy as np


def canonical(obj) -> str:
    """JSON text with sorted keys: two values are bit-identical exactly
    when their canonical texts are equal (``repr`` of a float round-trips)."""
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# figures


def check_points(points: list[dict], oracle: dict[tuple, dict]) -> list[str]:
    """Sampled engine points equal the scalar oracle bit for bit."""
    errors = []
    for pt in points:
        key = (pt["app"], pt["platform"], pt["config"])
        if pt["estimate"] is None:
            errors.append(f"{pt['figure']}: {key} missing from the store")
        elif canonical(pt["estimate"]) != canonical(oracle[key]):
            errors.append(f"{pt['figure']}: {key} differs from scalar estimate_app")
    if not points:
        errors.append("no model points sampled")
    return errors


def check_rows(rows: dict, oracle_rows: dict, sample: dict[str, list[int]]) -> list[str]:
    """Sampled rows of the recomputed figures equal the scalar recompute."""
    errors = []
    for fig, idx in sample.items():
        for i in idx:
            if canonical(rows[fig][i]) != canonical(oracle_rows[fig][i]):
                errors.append(f"{fig} row {i} differs from the scalar recompute")
    return errors


def check_same_rows(reference: dict, others: list[dict], what: str) -> list[str]:
    """Every process produced the same figures (warm equals cold)."""
    ref = canonical(reference)
    return [f"{what} {i} figures differ from the reference run"
            for i, rows in enumerate(others) if canonical(rows) != ref]


def check_fidelity(passed: list[str], total: int, expected: int = 9) -> list[str]:
    if total != expected or len(passed) != expected:
        return [f"fidelity scorecard {len(passed)}/{total}, expected "
                f"{expected}/{expected}"]
    return []


def oracle_engine():
    """A process-default engine on the scalar path with the store off."""
    from repro.engine import configure_engine

    return configure_engine(use_cache=False, vectorize=False)


def oracle_estimates(points: list[dict]) -> dict[tuple, dict]:
    """Scalar ``estimate_app`` of each sampled point, vec and store off."""
    from repro.engine.store import estimate_to_dict
    from repro.harness.runner import default_sweep_configs
    from repro.machine import ALL_PLATFORMS
    from repro.perfmodel.roofline import estimate_app

    engine = oracle_engine()
    platforms = {p.short_name: p for p in ALL_PLATFORMS}
    out = {}
    for pt in points:
        key = (pt["app"], pt["platform"], pt["config"])
        if key in out:
            continue
        platform = platforms[pt["platform"]]
        cfg = {c.label(): c for c in
               default_sweep_configs(pt["app"], platform)}[pt["config"]]
        est = estimate_app(engine.app_spec(pt["app"]), platform, cfg,
                           engine.hierarchy(platform))
        out[key] = json.loads(json.dumps(estimate_to_dict(est)))
    return out


def oracle_rows(figures: tuple[str, ...]) -> dict:
    """Rows of whole figures recomputed on the scalar path, store off."""
    from repro.harness import figures as F

    oracle_engine()
    return {fig: json.loads(json.dumps(getattr(F, fig)().rows)) for fig in figures}


# ---------------------------------------------------------------------------
# serve-mix


def check_serve(statuses: list[int], bodies: dict[str, str],
                inconsistent: list[str], expected: dict[str, str]) -> list[str]:
    """Every response is 200, and every /run and /sweep body is byte-equal
    to the payload built without a server."""
    errors = []
    bad = [s for s in statuses if s != 200]
    if bad:
        errors.append(f"{len(bad)} responses were not 200: {sorted(set(bad))}")
    errors += [f"repeated request answered differently: {k}"
               for k in sorted(set(inconsistent))]
    for key, want in expected.items():
        if bodies.get(key) != want:
            errors.append(f"body differs from the payload builder: {key}")
    return errors


def expected_serve_bodies(plan: dict, keys: list[str]) -> dict[str, str]:
    """The /run and /sweep bodies of ``keys``, built with
    ``repro.serve.payloads`` over the harness.  The engine is vectorized
    with an in-memory store, warmed with the plan's warm pairs first, so
    that sweep rows carry the ``cached`` status the server reports."""
    from repro.engine import configure_engine
    from repro.serve import payloads

    configure_engine(use_cache=True, vectorize=True)
    for app, platform in plan["warm"]:
        payloads.run_payload(app, payloads.resolve_platform(platform))
    out = {}
    for key in keys:
        path, body = json.loads(key)
        if path == "/run":
            payload = payloads.run_payload(
                body["app"], payloads.resolve_platform(body["platform"]))
        elif path == "/sweep":
            payload = payloads.sweep_payload(
                body["apps"],
                [payloads.resolve_platform(p) for p in body["platforms"]])
        else:
            continue
        out[key] = payloads.render_json(payload)
    return out


# ---------------------------------------------------------------------------
# simmpi-halo


def expected_halo_locals(field: np.ndarray, dims, interior, iterations: int) -> np.ndarray:
    """Each rank's local array after the exchanges: its block of the
    periodic global field, ghosts included (corners too, since the
    exchange sweeps one dimension after the other)."""
    h, w = interior
    padded = np.pad(field + iterations, 1, mode="wrap")
    out = np.empty((dims[0] * dims[1], h + 2, w + 2))
    for r in range(dims[0] * dims[1]):
        cy, cx = divmod(r, dims[1])
        out[r] = padded[cy * h:cy * h + h + 2, cx * w:cx * w + w + 2]
    return out


def check_halo(totals: np.ndarray, locals_: np.ndarray, expected: np.ndarray,
               stats: dict, iterations: int) -> list[str]:
    errors = []
    n = len(totals)
    closed_form = n * (n + 1) / 2  # allreduce of rank + 1 over all ranks
    if not np.all(totals == closed_form):
        errors.append(f"allreduce differs from sum(rank+1) = {closed_form} on "
                      f"{int(np.sum(totals != closed_form))} ranks")
    wrong = np.argwhere(locals_ != expected)
    if len(wrong):
        errors.append(f"{len(wrong)} cells differ from the neighbour's value, "
                      f"first at rank/cell {wrong[0].tolist()}")
    if stats["messages"] != n * 4 * iterations:
        errors.append(f"{stats['messages']} messages, expected {n * 4 * iterations}")
    if stats["collectives"] != n * iterations:
        errors.append(f"{stats['collectives']} collectives, expected {n * iterations}")
    return errors


# ---------------------------------------------------------------------------
# dsl-distributed


def serial_dsl(spec: dict) -> dict:
    """The same apps at the same sizes run serially, plus CloverLeaf's
    initial mass (a run of zero iterations)."""
    from repro.apps.cloverleaf import run_cloverleaf
    from repro.apps.mgcfd import run_mgcfd
    from repro.op2 import Op2Context
    from repro.ops import OpsContext

    cl, mg = spec["cloverleaf"], spec["mgcfd"]
    c = run_cloverleaf(OpsContext(), tuple(cl["domain"]), cl["iterations"], init="sod")
    m = run_mgcfd(Op2Context(), tuple(mg["domain"]), mg["iterations"])
    c0 = run_cloverleaf(OpsContext(), tuple(cl["domain"]), 0, init="sod")
    return {"density": c["density"], "energy_field": c["energy_field"],
            "velocity": np.stack(c["velocity"]), "mass0": c0["mass"],
            "q": m["q"], "residual": np.asarray(m["residual"])}


def check_dsl(dist, serial: dict) -> list[str]:
    """CloverLeaf fields bitwise equal to serial with mass conserved to
    rounding; MG-CFD within 1e-11 (residuals 1e-10), as in tests/apps."""
    errors = []
    for name in ("density", "energy_field", "velocity"):
        if not np.array_equal(dist[name], serial[name]):
            errors.append(f"cloverleaf {name} differs from the serial run")
    mass0 = serial["mass0"]
    if not np.all(np.abs(dist["mass"] - mass0) <= 1e-12 * abs(mass0)):
        errors.append(f"cloverleaf mass {dist['mass'].tolist()} not conserved "
                      f"(initial {mass0})")
    if not np.allclose(dist["q"], serial["q"], rtol=1e-11, atol=0.0):
        errors.append("mgcfd q differs from the serial run beyond 1e-11")
    if not all(np.allclose(r, serial["residual"], rtol=1e-10, atol=0.0)
               for r in dist["residual"]):
        errors.append("mgcfd residual differs from the serial run beyond 1e-10")
    return errors
