"""One program process of the benchmark: set up, run the measured phase,
write what the checks and metrics need.

Usage (from the root of a checkout, ``PYTHONPATH=src``)::

    python3 perfbench/child.py {figures|simmpi|dsl} SPEC.json OUT.json [SPANS.json]

``SPEC.json`` holds the inputs the benchmark generated from its seed;
``OUT.json`` receives the measured-phase start and end (``time.monotonic``,
which is system-wide, so the parent can subtract its own launch time),
CPU seconds, per-operation latencies, peak RSS and the outputs to check.
Passing ``SPANS.json`` turns on the traced run: the wrappers of
:mod:`tracing` are installed before the measured phase and the spans are
written there at exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _span(rec, name, adopt=False):
    import contextlib

    return rec.span(name, adopt) if rec is not None else contextlib.nullcontext()


def _figure_points(spec: dict, engine) -> list[dict]:
    """Seeded sample of the model points behind fig3-fig8, read from the
    store the measured phase filled (reading never evaluates)."""
    import random

    from repro.apps import APP_ORDER
    from repro.engine import build_plan
    from repro.engine.store import estimate_to_dict
    from repro.harness import paperdata as paper
    from repro.machine import (
        A100_40GB, CPU_PLATFORMS, XEON_MAX_9480, Compiler, Parallelization,
        RunConfig, structured_config_sweep, unstructured_config_sweep,
    )

    from inputs import FIGURE_POINT_SETS

    named = {"max9480": [XEON_MAX_9480], "cpu": list(CPU_PLATFORMS),
             "a100": [A100_40GB]}
    apps = {"structured": paper.STRUCTURED_APPS,
            "unstructured": paper.UNSTRUCTURED_APPS,
            "no_minibude": [a for a in APP_ORDER if a != "minibude"],
            "all": list(APP_ORDER)}

    def configs(app, platform):  # the sweeps repro.harness.figures uses
        if platform is A100_40GB:
            return [RunConfig(Compiler.NVCC, Parallelization.CUDA)]
        if app in paper.UNSTRUCTURED_APPS:
            return unstructured_config_sweep(platform)
        return structured_config_sweep(platform)

    rng = random.Random(spec["seed"])
    out = []
    for fig, sets in FIGURE_POINT_SETS:
        jobs = [job for app_set, plat_set in sets
                for app in apps[app_set] for p in named[plat_set]
                for job in build_plan([app], [p], configs(app, p)).jobs]
        for job in rng.sample(jobs, spec["points_per_figure"]):
            stored = [
                e for e in engine.store.estimates(job.app, job.platform.short_name)
                if e.config_label == job.config.label()
            ]
            out.append({
                "figure": fig, "app": job.app,
                "platform": job.platform.short_name,
                "config": job.config.label(),
                "estimate": estimate_to_dict(stored[0]) if stored else None,
            })
    return out


def run_figures(spec: dict, rec) -> dict:
    from repro.harness import figures

    names = spec["figures"]
    t_start, cpu0 = time.monotonic(), time.process_time()
    rows, lat = {}, []
    for name in names:
        t0 = time.perf_counter()
        with _span(rec, "harness." + name):
            res = getattr(figures, name)()
        lat.append(time.perf_counter() - t0)
        rows[name] = res.rows
    t_end, cpu1 = time.monotonic(), time.process_time()
    if rec is not None:
        rec.enabled = False

    from repro.engine import default_engine
    from repro.obs.fidelity import scorecard

    engine = default_engine()
    out = {
        "t_start": t_start, "t_end": t_end, "cpu_s": cpu1 - cpu0,
        # One operation is one regeneration of every figure.
        "op_latencies": [t_end - t_start], "ops": 1, "figure_latencies": lat,
        "rows": rows,
        "points": _figure_points(spec, engine),
    }
    if spec.get("fidelity"):
        card = scorecard()
        out["fidelity"] = [s.figure for s in card.scores
                           if s.verdict(card._figure_thresholds(s.figure))]
        out["fidelity_total"] = len(card.scores)
    return out


def _halo_program(grid, local0, iters):
    from repro.simmpi import exchange_halos_co, op

    def prog(comm):
        local = local0[comm.rank].copy()
        total = 0.0
        for _ in range(iters):
            local[1:-1, 1:-1] += 1.0
            yield op.compute(1e-6)
            yield from exchange_halos_co(comm, grid, local, 1)
            total = yield op.allreduce(float(comm.rank + 1))
        return total, local

    return prog


def _stats(world) -> dict:
    return {
        "messages": sum(c.stats.messages_sent for c in world.comms),
        "bytes": sum(c.stats.bytes_sent for c in world.comms),
        "collectives": sum(c.stats.collectives for c in world.comms),
    }


def run_simmpi(spec: dict, rec, workdir: Path) -> dict:
    import numpy as np

    from repro.simmpi import CartGrid, World

    nranks, iters = spec["nranks"], spec["iterations"]
    local0 = np.load(workdir / spec["field"])
    t_start, cpu0 = time.monotonic(), time.process_time()
    with _span(rec, "simmpi.world_init"):
        grid = CartGrid(tuple(spec["dims"]), periodic=(True, True))
        world = World(nranks, backend="events")
    with _span(rec, "simmpi.run"):
        results = world.run(_halo_program(grid, local0, iters))
    t_end, cpu1 = time.monotonic(), time.process_time()
    np.savez(workdir / "simmpi_out.npz",
             totals=np.array([r[0] for r in results]),
             locals=np.stack([r[1] for r in results]))
    return {
        "t_start": t_start, "t_end": t_end, "cpu_s": cpu1 - cpu0,
        "op_latencies": [t_end - t_start], "ops": 1,
        "stats": _stats(world),
    }


def run_dsl(spec: dict, rec, workdir: Path) -> dict:
    import numpy as np

    from repro.apps.cloverleaf import run_cloverleaf
    from repro.apps.mgcfd import run_mgcfd
    from repro.op2 import DistOp2Context, Op2Context
    from repro.ops import OpsContext
    from repro.simmpi import CartGrid, World

    cl, mg = spec["cloverleaf"], spec["mgcfd"]
    cl_dims, cl_dom = tuple(cl["dims"]), tuple(cl["domain"])
    mg_dom = tuple(mg["domain"])

    def clover(comm):
        ctx = OpsContext(comm=comm, grid=CartGrid(cl_dims))
        return run_cloverleaf(ctx, cl_dom, cl["iterations"], init="sod")

    def mgcfd(comm):
        return run_mgcfd(DistOp2Context(comm), mg_dom, mg["iterations"])

    stats = {"messages": 0, "bytes": 0, "collectives": 0}
    lat, results = [], {}
    t_start, cpu0 = time.monotonic(), time.process_time()
    for name, program, nranks in (("cloverleaf", clover, cl_dims[0] * cl_dims[1]),
                                  ("mgcfd", mgcfd, mg["nranks"])):
        t0 = time.perf_counter()
        with _span(rec, "simmpi.world_init"):
            world = World(nranks)
        with _span(rec, "simmpi.run", adopt=True):
            results[name] = world.run(program)
        lat.append(time.perf_counter() - t0)
        for k, v in _stats(world).items():
            stats[k] += v
    t_end, cpu1 = time.monotonic(), time.process_time()
    # One operation is the distributed step of both apps; per-app
    # latencies stay in the output for reading.
    out = {
        "t_start": t_start, "t_end": t_end, "cpu_s": cpu1 - cpu0,
        "op_latencies": [t_end - t_start], "ops": 1, "app_latencies": lat,
        "stats": stats,
    }
    if rec is not None:
        rec.enabled = False
        t0 = time.perf_counter()
        run_cloverleaf(OpsContext(), cl_dom, cl["iterations"], init="sod")
        out["ops_serial_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_mgcfd(Op2Context(), mg_dom, mg["iterations"])
        out["op2_serial_s"] = time.perf_counter() - t0
    c0, m0 = results["cloverleaf"][0], results["mgcfd"][0]
    np.savez(workdir / "dsl_out.npz",
             density=c0["density"], energy_field=c0["energy_field"],
             velocity=np.stack(c0["velocity"]),
             mass=np.array([r["mass"] for r in results["cloverleaf"]]),
             q=m0["q"],
             residual=np.stack([np.asarray(r["residual"])
                                for r in results["mgcfd"]]))
    return out


def main(argv: list[str]) -> int:
    kind, spec_path, out_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    rec = None
    if spans_path:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    spec = json.loads(Path(spec_path).read_text())
    if spec.get("one_cpu"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = Path(out_path).parent
    if kind == "figures":
        out = run_figures(spec, rec)
    elif kind == "simmpi":
        out = run_simmpi(spec, rec, workdir)
    elif kind == "dsl":
        out = run_dsl(spec, rec, workdir)
    else:
        raise SystemExit(f"unknown program kind {kind!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        rec.dump(spans_path)
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
