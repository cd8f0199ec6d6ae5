"""Run the planning server with the benchmark's layer spans installed.

    python perfbench/traced_server.py SPANS.npz [repro.plan.serve arguments...]

Installs the same wrappers as a traced in-process run (see
:mod:`layers`), then hands the remaining arguments to
``repro.plan.serve.main``.  When the server drains (SIGTERM) the spans
it recorded are written to ``SPANS.npz``.  ``repro`` must be importable
(the benchmark puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import sys

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer)
    from repro.plan.serve import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
