"""Workload inputs, all derived from the ``--seed`` argument alone.

The program processes receive only what is built here (a spec file, a
field array, a request plan); none of them sees the seed's RNG.
"""

from __future__ import annotations

import random

import numpy as np

#: Every figure the tool regenerates, in ``repro.harness.figures.all_figures``
#: order.
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig7x",
           "fig8", "fig9")

#: Figures whose rows the checker recomputes whole on the scalar path
#: (they price a handful of points, or none through the engine).
RECOMPUTED_FIGURES = ("fig1", "fig2", "fig7x", "fig9")

#: The engine points behind each remaining figure, as (app set, platform
#: set) pairs; the child resolves the names (see ``child._figure_points``).
FIGURE_POINT_SETS = (
    ("fig3", (("structured", "max9480"),)),
    ("fig4", (("unstructured", "max9480"),)),
    ("fig5", (("no_minibude", "max9480"),)),
    ("fig6", (("all", "cpu"), ("all", "a100"))),
    ("fig7", (("no_minibude", "cpu"),)),
    ("fig8", (("structured", "cpu"),)),
)

#: Sampled engine points per figure, and sampled rows per recomputed figure.
POINTS_PER_FIGURE = 3
ROWS_PER_FIGURE = 3


def figures_spec(seed: int) -> dict:
    return {"seed": seed, "figures": list(FIGURES),
            "points_per_figure": POINTS_PER_FIGURE}


def sampled_rows(seed: int, rows: dict) -> dict[str, list[int]]:
    """Seeded row indices of each recomputed figure."""
    rng = random.Random(seed + 1)
    return {fig: sorted(rng.sample(range(len(rows[fig])),
                                   min(ROWS_PER_FIGURE, len(rows[fig]))))
            for fig in RECOMPUTED_FIGURES}


# ---------------------------------------------------------------------------
# simmpi-halo

#: 2048 ranks on a 64 x 32 periodic grid, 4 x 4 interior cells per rank,
#: one exchange + allreduce iteration per world (one world per round).
SIMMPI_DIMS = (64, 32)
SIMMPI_INTERIOR = (4, 4)
SIMMPI_ITERATIONS = 1


def simmpi_field(seed: int) -> np.ndarray:
    """The global interior field, one block per rank."""
    rng = np.random.default_rng(seed)
    return rng.random((SIMMPI_DIMS[0] * SIMMPI_INTERIOR[0],
                       SIMMPI_DIMS[1] * SIMMPI_INTERIOR[1]))


def rank_blocks(field: np.ndarray, dims=SIMMPI_DIMS,
                interior=SIMMPI_INTERIOR) -> np.ndarray:
    """Per-rank local arrays (ghost layer of 1, zero ghosts), rank-major
    in the row-major Cartesian order of ``repro.simmpi.CartGrid``."""
    h, w = interior
    out = np.zeros((dims[0] * dims[1], h + 2, w + 2))
    for r in range(dims[0] * dims[1]):
        cy, cx = divmod(r, dims[1])
        out[r, 1:-1, 1:-1] = field[cy * h:(cy + 1) * h, cx * w:(cx + 1) * w]
    return out


def simmpi_spec() -> dict:
    return {"nranks": SIMMPI_DIMS[0] * SIMMPI_DIMS[1], "dims": list(SIMMPI_DIMS),
            "iterations": SIMMPI_ITERATIONS, "field": "field.npy"}


# ---------------------------------------------------------------------------
# dsl-distributed

#: CloverLeaf 2D (Sod shock tube) over a 4 x 4 rank grid and MG-CFD over
#: 16 ranks.  The process runs on one CPU: the threaded simmpi backend
#: runs one rank thread at a time, and across two CPUs every hand-off
#: waits on the host's wake-up latency, which made the same round take
#: 2.9 to 8.4 s of wall time for 3 s of CPU.
DSL_SPEC = {
    "cloverleaf": {"dims": [4, 4], "domain": [32, 32], "iterations": 1},
    "mgcfd": {"nranks": 16, "domain": [8, 8, 8], "iterations": 2},
    "one_cpu": True,
}


# ---------------------------------------------------------------------------
# serve-mix

SERVE_APPS = ("cloverleaf2d", "cloverleaf3d", "opensbli_sa", "opensbli_sn",
              "acoustic", "miniweather", "mgcfd", "volna", "minibude")
SERVE_PLATFORMS = ("max9480", "icx8360y", "epyc7v73x", "a100")

#: Requests per connection per round.  Each round sends one /explain and
#: one /sweep per app and three first-time pairs; the rest are warm /run.
SERVE_STEPS = 60
SERVE_FRESH_PAIRS = 3


def _run(app, platform):
    return ["/run", {"app": app, "platform": platform}]


def serve_plan(seed: int) -> dict:
    """Warm pairs (requested during set-up) and the measured request
    sequence: ``steps`` of one request per connection, sent in lockstep.

    The warm pairs are fixed: every app, on the three CPU platforms in
    turn, so that every round profiles the same apps and the request
    costs do not depend on the seed.  The seed picks the three first-time
    pairs (warm apps on the next platform, a100 included: they go through
    the batch queue and vec without profiling a new app), which warm pair
    each /run asks for beyond an even share, and the order.
    """
    rng = random.Random(seed)
    warm = [(a, SERVE_PLATFORMS[i % 3]) for i, a in enumerate(SERVE_APPS)]
    fresh = [(a, SERVE_PLATFORMS[SERVE_PLATFORMS.index(p) + 1])
             for a, p in rng.sample(warm, SERVE_FRESH_PAIRS)]

    singles = ([["/explain", {"app": a, "platform": p}] for a, p in warm]
               + [["/sweep", {"apps": [a], "platforms": [p]}] for a, p in warm]
               + [_run(*pair) for pair in fresh[1:]])
    # Two steps carry duplicates, sent on both connections at once: a
    # first-time /run and a warm /sweep.
    n_runs = 2 * (SERVE_STEPS - 2) - len(singles)
    runs = warm * (n_runs // len(warm)) + rng.sample(warm, n_runs % len(warm))
    singles += [_run(*pair) for pair in runs]
    rng.shuffle(singles)
    steps = [[singles[2 * i], singles[2 * i + 1]]
             for i in range(len(singles) // 2)]
    a, p = rng.choice(warm)
    for dup in (_run(*fresh[0]), ["/sweep", {"apps": [a], "platforms": [p]}]):
        steps.insert(rng.randrange(1, len(steps) + 1), [dup, dup])
    return {"warm": [list(w) for w in warm], "fresh": [list(f) for f in fresh],
            "steps": steps}
