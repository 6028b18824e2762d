"""One measured ctsim process: ``python perfbench/child.py SIDECAR ARGS...``.

Imports ctsim from the checkout's ``src/`` (and fails if it came from
anywhere else), then runs ``ctsim.cli.main(ARGS)`` and exits with its
code. SIDECAR is a JSON file written at exit with:

- ``world_ready``: ``time.monotonic()`` when the first ``World(cfg)``
  returned, so the parent can time set-up from the moment it spawned us;
- ``ctsim_file``, ``backend`` and ``python``: what was measured.

With ``PERFBENCH_TRACE`` set to a path, the layer wrappers of
``tracer.py`` are installed first and their spans and counts are written
there at exit.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    sidecar, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    import ctsim.cli
    from ctsim import _ecbackend
    from ctsim.sim import World

    ctsim_file = os.path.realpath(ctsim.cli.__file__)
    if not ctsim_file.startswith(os.path.realpath(SRC) + os.sep):
        print(f"ctsim imported from {ctsim_file}, not from {SRC}",
              file=sys.stderr)
        return 3

    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    info = {"world_ready": None, "ctsim_file": ctsim_file,
            "backend": _ecbackend.BACKEND,
            "python": platform.python_version()}
    world_init = World.__init__

    def timed_init(self, *args, **kwargs):
        world_init(self, *args, **kwargs)
        if info["world_ready"] is None:
            info["world_ready"] = time.monotonic()

    World.__init__ = timed_init
    try:
        return ctsim.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)
        with open(sidecar, "w") as fh:
            json.dump(info, fh)


if __name__ == "__main__":
    sys.exit(main())
