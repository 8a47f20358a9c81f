"""``repro serve`` with the traced run's wrappers installed.

Usage::

    python3 perfbench/serve_host.py SPANS.json [repro serve arguments...]

Runs the ``serve`` verb of the CLI in this process after wrapping the
engine, vec, apps and perfmodel functions of :mod:`tracing`, and writes
the spans to ``SPANS.json`` when the server shuts down (SIGTERM takes the
CLI's graceful path).
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    rec = tracing.Recorder()
    tracing.install(rec)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
