"""The repository benchmark: one workload, one seed, metrics on the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): figures-cold, figures-warm, serve-mix,
simmpi-halo, dsl-distributed.  Each run repeats whole rounds until
``--seconds`` have passed; every round starts fresh program processes
with their own cache directory under ``.perfbench/``.  With ``--trace 0``
the last line of standard output is a JSON object with every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` rounds alternate between
untraced and traced program processes, a per-layer table is printed, and
the JSON object holds every per-layer metric, including the tracing
overhead (traced minus untraced ``work_s``).  Every run checks the
program's outputs; ``correct`` is false and the errors go to standard
error when a check fails.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

PY = sys.executable
#: Whole-run budget: no new round starts once this much time has passed.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class Run:
    """State of one benchmark run: its directory, seed and rounds."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int,
                 trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.dir = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.started = time.monotonic()
        self.errors: list[str] = []
        self.last_spans: Path | None = None

    def program_env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(cache)
        for var in ("REPRO_NO_VEC", "REPRO_JOBS"):
            env.pop(var, None)
        return env

    def rounds(self, round_fn) -> list[dict]:
        """Whole rounds for about ``seconds``: the last round starts no
        later than half a round before the end.  In a traced run odd
        rounds are traced and at least one of each kind runs."""
        out = []
        t0 = time.monotonic()
        while True:
            traced = self.trace and len(out) % 2 == 1
            rd = self.dir / f"round{len(out)}"
            rd.mkdir()
            r0 = time.monotonic()
            res = round_fn(rd, traced)
            res["traced"] = traced
            if traced:
                self.last_spans = rd / "spans.json"
            out.append(res)
            now = time.monotonic()
            left = self.seconds - (now - t0)
            enough = left < (now - r0) / 2 and (not self.trace or len(out) >= 2)
            if enough or now - self.started + (now - r0) > RUN_BUDGET_S:
                return out

    def child(self, kind: str, spec: dict, rd: Path, cache: Path,
              traced: bool) -> dict:
        """One program process; returns its OUT.json plus ``setup_s``,
        ``work_s`` and the store bytes it wrote."""
        (rd / "spec.json").write_text(json.dumps(spec))
        cmd = [PY, str(HERE / "child.py"), kind, str(rd / "spec.json"),
               str(rd / "out.json")]
        if traced:
            cmd.append(str(rd / "spans.json"))
        store = cache / "results.jsonl"
        before = file_size(store)
        t_launch = time.monotonic()
        proc = subprocess.run(cmd, env=self.program_env(cache), cwd=self.root,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} process failed:\n{proc.stderr}")
        out = json.loads((rd / "out.json").read_text())
        out["setup_s"] = out["t_start"] - t_launch
        out["work_s"] = out["t_end"] - out["t_start"]
        out["store_bytes_written"] = file_size(store) - before
        if traced:
            out["layers"] = json.loads((rd / "spans.json").read_text())
        return out


# ---------------------------------------------------------------------------
# workloads


def figures(run: Run, warm: bool) -> list[dict]:
    spec = inputs.figures_spec(run.seed)
    shared = run.dir / "cache"
    reference = None
    if warm:
        fill_dir = run.dir / "fill"
        fill_dir.mkdir()
        reference = run.child("figures", spec, fill_dir, shared, False)

    def one(rd: Path, traced: bool) -> dict:
        first = rd.name == "round0"  # the scorecard is scored once per run
        return run.child("figures", {**spec, "fidelity": first}, rd,
                         shared if warm else rd / "cache", traced)

    rounds = run.rounds(one)
    check_figures(run, rounds, reference)
    return rounds


def check_figures(run: Run, rounds: list[dict], reference: dict | None) -> None:
    first = rounds[0]
    if reference is not None:
        run.errors += checks.check_same_rows(reference["rows"],
                                             [r["rows"] for r in rounds], "warm round")
    else:
        run.errors += checks.check_same_rows(first["rows"],
                                             [r["rows"] for r in rounds[1:]], "round")
    oracle = checks.oracle_estimates(first["points"])
    for r in rounds:
        run.errors += checks.check_points(r["points"], oracle)
    run.errors += checks.check_fidelity(first["fidelity"], first["fidelity_total"])
    sample = inputs.sampled_rows(run.seed, first["rows"])
    run.errors += checks.check_rows(first["rows"],
                                    checks.oracle_rows(inputs.RECOMPUTED_FIGURES),
                                    sample)


def simmpi_halo(run: Run) -> list[dict]:
    import numpy as np

    spec = inputs.simmpi_spec()
    field = inputs.simmpi_field(run.seed)
    np.save(run.dir / "field.npy", inputs.rank_blocks(field))
    expected = checks.expected_halo_locals(field, inputs.SIMMPI_DIMS,
                                           inputs.SIMMPI_INTERIOR,
                                           inputs.SIMMPI_ITERATIONS)

    def one(rd: Path, traced: bool) -> dict:
        shutil.copy(run.dir / "field.npy", rd / "field.npy")
        res = run.child("simmpi", spec, rd, rd / "cache", traced)
        with np.load(rd / "simmpi_out.npz") as out:
            run.errors += checks.check_halo(out["totals"], out["locals"],
                                            expected, res["stats"],
                                            inputs.SIMMPI_ITERATIONS)
        return res

    return run.rounds(one)


def dsl_distributed(run: Run) -> list[dict]:
    import numpy as np

    serial = checks.serial_dsl(inputs.DSL_SPEC)

    def one(rd: Path, traced: bool) -> dict:
        res = run.child("dsl", inputs.DSL_SPEC, rd, rd / "cache", traced)
        with np.load(rd / "dsl_out.npz") as out:
            run.errors += checks.check_dsl(dict(out), serial)
        return res

    return run.rounds(one)


# ---- serve-mix ----------------------------------------------------------


def _request(port: int, method: str, path: str, body=None) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def _prometheus_totals(text: str) -> dict[str, float]:
    """Sum of every sample per metric family of a /metrics body."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        family = name.split("{", 1)[0]
        out[family] = out.get(family, 0.0) + float(value)
    return out


SERVE_COUNTERS = {
    "serve.lru_hits": "serve_lru_hits_total",
    "serve.lru_misses": "serve_lru_misses_total",
    "serve.coalesced": "serve_coalesced_total",
    "serve.batches": "serve_batches_total",
    "serve.warm_inline": "serve_warm_inline_total",
    "serve.rejected": "serve_rejected_total",
}
SERVE_STAGES = ("queue_wait", "batch_window", "shard_exec", "store_io")


def serve_mix(run: Run) -> list[dict]:
    plan = inputs.serve_plan(run.seed)
    plan_path = run.dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    serve_args = ["--port", "0",
                  "--flight-records", str(4 * inputs.SERVE_STEPS)]
    bodies: dict[str, str] = {}
    statuses: list[int] = []
    inconsistent: list[str] = []

    def one(rd: Path, traced: bool) -> dict:
        cache = rd / "cache"
        env = run.program_env(cache)
        cmd = ([PY, str(HERE / "serve_host.py"), str(rd / "spans.json")]
               if traced else [PY, "-m", "repro", "serve"]) + serve_args
        loadgen = subprocess.Popen(
            [PY, str(HERE / "loadgen.py"), str(plan_path), str(rd / "load.json")],
            stdin=subprocess.PIPE, text=True, cwd=run.root)
        t_launch = time.monotonic()
        server = subprocess.Popen(cmd, env=env, cwd=run.root, text=True,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
        res: dict = {}
        try:
            port = None
            while port is None:
                line = server.stderr.readline()
                if not line:
                    raise RuntimeError("repro serve exited before listening")
                if "listening on http://" in line:
                    port = int(line.split("listening on http://")[1]
                               .split()[0].rsplit(":", 1)[1])
            for app, platform in plan["warm"]:
                status, _ = _request(port, "POST", "/run",
                                     {"app": app, "platform": platform})
                if status != 200:
                    raise RuntimeError(f"warm-up /run {app}@{platform}: {status}")
            if traced:
                before = _prometheus_totals(_request(port, "GET", "/metrics")[1])
            cpu0 = _proc_cpu_s(server.pid)
            loadgen.stdin.write(f"{port}\n")
            loadgen.stdin.close()
            if loadgen.wait(timeout=CHILD_TIMEOUT_S) != 0:
                raise RuntimeError("load generator failed")
            res["cpu_s"] = _proc_cpu_s(server.pid) - cpu0
            res["peak_rss_mb"] = _proc_peak_rss_mb(server.pid)
            if traced:
                after = _prometheus_totals(_request(port, "GET", "/metrics")[1])
                flight = json.loads(_request(port, "GET", "/debug/requests")[1])
        finally:
            if loadgen.poll() is None:
                loadgen.kill()
                loadgen.wait()
            server.send_signal(signal.SIGTERM)
            try:
                server.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.communicate()
        load = json.loads((rd / "load.json").read_text())
        res.update(
            setup_s=load["t_start"] - t_launch,
            work_s=load["t_end"] - load["t_start"],
            op_latencies=load["latencies"], ops=len(load["latencies"]),
            failed=sum(1 for s in load["statuses"] if s != 200),
            store_bytes_written=file_size(cache / "results.jsonl"),
        )
        statuses.extend(load["statuses"])
        inconsistent.extend(load["inconsistent"])
        for key, body in load["bodies"].items():
            if bodies.setdefault(key, body) != body:
                inconsistent.append(key)
        if traced:
            res["layers"] = json.loads((rd / "spans.json").read_text())
            ids = set(load["ids"])
            recs = [r for r in flight["requests"] if r["id"] in ids]
            serve = {f"serve.{s}_s": sum(r["stages"].get(s, 0.0) for r in recs)
                     for s in SERVE_STAGES}
            serve["serve.server_p50_ms"] = 1e3 * percentile(
                [r["duration_s"] for r in recs], 0.5)
            for metric, family in SERVE_COUNTERS.items():
                serve[metric] = after.get(family, 0.0) - before.get(family, 0.0)
            res["serve"] = serve
        return res

    rounds = run.rounds(one)
    keys = [k for k in bodies if json.loads(k)[0] in ("/run", "/sweep")]
    expected = checks.expected_serve_bodies(plan, keys)
    run.errors += checks.check_serve(statuses, bodies, inconsistent, expected)
    return rounds


WORKLOADS = {
    "figures-cold": lambda run: figures(run, warm=False),
    "figures-warm": lambda run: figures(run, warm=True),
    "serve-mix": serve_mix,
    "simmpi-halo": simmpi_halo,
    "dsl-distributed": dsl_distributed,
}


# ---------------------------------------------------------------------------
# metrics


#: A 90th percentile is a tail only with ten samples beyond it.
TAIL_SAMPLES = 100


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over the untraced rounds; operation latencies pooled.

    Only serve-mix has enough operations per run (its requests) for a
    tail; elsewhere an operation is a round and ``p90_ms`` reports the
    median, as the percentile would have no samples beyond it.
    """
    plain = [r for r in rounds if not r["traced"]]
    lat = [x for r in plain for x in r["op_latencies"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "work_s": statistics.median(r["work_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "p50_ms": 1e3 * statistics.median(lat),
        "p90_ms": 1e3 * (percentile(lat, 0.9) if len(lat) >= TAIL_SAMPLES
                         else statistics.median(lat)),
    }


#: Per-layer metric -> (source, key) in a traced round's span dump.
SPAN_METRICS = {
    "apps.build_spec_s": ("totals", "apps.build_spec"),
    "apps.build_spec_calls": ("counters", "apps.build_spec.calls"),
    "engine.result_key_s": ("totals", "engine.result_key"),
    "engine.result_key_calls": ("counters", "engine.result_key.calls"),
    "engine.store_get_s": ("totals", "engine.store_get"),
    "engine.store_hits": ("counters", "engine.store_hits"),
    "engine.store_misses": ("counters", "engine.store_misses"),
    "engine.store_put_s": ("totals", "engine.store_put"),
    "engine.store_puts": ("counters", "engine.store_put.calls"),
    "engine.run_plan_s": ("totals", "engine.run_plan"),
    "engine.plans": ("counters", "engine.run_plan.calls"),
    "engine.jobs": ("counters", "engine.jobs"),
    "engine.build_plan_s": ("totals", "engine.build_plan"),
    "vec.evaluate_s": ("totals", "vec.evaluate"),
    "vec.batches": ("counters", "vec.evaluate.calls"),
    "vec.jobs": ("counters", "vec.jobs"),
    "perfmodel.estimate_app_s": ("totals", "perfmodel.estimate_app"),
    "perfmodel.estimate_app_calls": ("counters", "perfmodel.estimate_app.calls"),
    **{f"harness.{f}_s": ("totals", f"harness.{f}") for f in inputs.FIGURES},
    "simmpi.world_init_s": ("totals", "simmpi.world_init"),
    "simmpi.run_s": ("totals", "simmpi.run"),
    "ops.par_loops": ("counters", "ops.par_loop.calls"),
    "op2.par_loops": ("counters", "op2.par_loop.calls"),
    **{f"{layer}.self_s": ("self", layer) for layer in
       ("harness", "apps", "engine", "vec", "perfmodel", "simmpi", "ops", "op2")},
}


def round_layers(r: dict) -> dict[str, float]:
    dump = r["layers"]
    m = {name: float(dump[src].get(key, 0.0))
         for name, (src, key) in SPAN_METRICS.items()}
    m["engine.store_bytes_written"] = float(r["store_bytes_written"])
    for name in ("messages", "bytes", "collectives"):
        m[f"simmpi.{name}"] = float(r.get("stats", {}).get(name, 0))
    m["ops.serial_s"] = r.get("ops_serial_s", 0.0)
    m["op2.serial_s"] = r.get("op2_serial_s", 0.0)
    serve = r.get("serve", {})
    for name in ("serve.server_p50_ms", *SERVE_COUNTERS,
                 *(f"serve.{s}_s" for s in SERVE_STAGES)):
        m[name] = serve.get(name, 0.0)
    m["trace.spans"] = float(len(dump["spans"]))
    return m


def per_layer(rounds: list[dict]) -> dict[str, float]:
    traced = [round_layers(r) for r in rounds if r["traced"]]
    m = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    plain = statistics.median(r["work_s"] for r in rounds if not r["traced"])
    tr = statistics.median(r["work_s"] for r in rounds if r["traced"])
    m.update({"trace.untraced_work_s": plain, "trace.traced_work_s": tr,
              "trace.overhead_s": tr - plain})
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout of the repository "
              "(src/repro not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # The checks import the program in this process: never on the store
    # of a user, never with a path override left in the environment.
    os.environ["REPRO_CACHE_DIR"] = ""
    for var in ("REPRO_NO_VEC", "REPRO_JOBS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(root / "src"))

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        rounds = WORKLOADS[args.workload](run)
        if run.last_spans is not None:
            shutil.copy(run.last_spans, root / ".perfbench" /
                        f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    for err in run.errors:
        print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        defs, values = spec["per_layer"], per_layer(rounds)
        print(f"{'layer metric':34} {'value':>14}  unit")
        for d in defs:
            print(f"{d['name']:34} {values[d['name']]:14.6g}  {d['unit']}")
    else:
        defs, values = spec["end_to_end"], end_to_end(rounds)
    result = {
        "correct": not run.errors,
        "attempted": sum(r["ops"] for r in plain),
        "failed": sum(r.get("failed", 0) for r in plain),
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in defs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
