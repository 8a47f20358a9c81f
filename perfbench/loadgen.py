"""Closed-loop load generator for serve-mix, run as its own process so
that it never shares the server's interpreter lock.

Usage::

    python3 perfbench/loadgen.py PLAN.json OUT.json

It reads the server port from standard input (the parent writes it once
the server is warm), then sends ``plan["steps"]`` over two keep-alive
connections, one thread each, in lockstep: both requests of a step are
sent together and the next step starts when both have answered.  Each
request's latency is taken as the client sees it, from send to the last
byte of the body.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time


def main(argv: list[str]) -> int:
    plan_path, out_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        steps = json.load(fh)["steps"]
    port = int(sys.stdin.readline())
    n_conn = len(steps[0])
    conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=60)
             for _ in range(n_conn)]
    barrier = threading.Barrier(n_conn)
    records: list[list] = [[] for _ in range(n_conn)]

    def client(k: int) -> None:
        conn = conns[k]
        for step in steps:
            path, body = step[k]
            data = json.dumps(body).encode()
            barrier.wait(timeout=60)
            t0 = time.perf_counter()
            conn.request("POST", path, body=data,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = resp.read()
            dt = time.perf_counter() - t0
            records[k].append((path, body, resp.status,
                               resp.getheader("X-Request-Id"), dt,
                               payload.decode()))

    threads = [threading.Thread(target=client, args=(k,)) for k in range(n_conn)]
    t_start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_end = time.monotonic()
    for conn in conns:
        conn.close()

    # One body per distinct request; a repeat that answers differently
    # is reported, since every request in the plan is deterministic.
    bodies: dict[str, str] = {}
    inconsistent = []
    for path, body, _status, _rid, _dt, payload in (r for rs in records for r in rs):
        key = json.dumps([path, body], sort_keys=True)
        if bodies.setdefault(key, payload) != payload:
            inconsistent.append(key)
    flat = [r for rs in records for r in rs]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "t_start": t_start, "t_end": t_end,
            "latencies": [r[4] for r in flat],
            "statuses": [r[2] for r in flat],
            "ids": [r[3] for r in flat],
            "bodies": bodies,
            "inconsistent": sorted(set(inconsistent)),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
