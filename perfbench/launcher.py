"""Start one screwspec command with the benchmark's span wrappers installed.

    python3 launcher.py SPANS_JSON SPAWN_TIME -- <screwspec arguments>

SPAWN_TIME is the parent's ``time.perf_counter()`` taken just before it
started this process; the clock is system-wide, so interpreter start-up
becomes the ``cli.interpreter`` span.  The spans are written to
SPANS_JSON when the command returns, and the exit code is the command's.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spans_path, spawned = sys.argv[1], float(sys.argv[2])
    args = sys.argv[sys.argv.index("--") + 1:]
    tracer = spans.Tracer()
    tracer.add("cli.interpreter", spawned, START)
    idx = tracer.open("cli.import")
    import screwspec
    import screwspec.cli

    tracer.close(idx)
    spans.install(tracer, screwspec)
    idx = tracer.open(f"cli.{args[0]}")
    tracer.active = True
    try:
        return screwspec.cli.main(args)
    finally:
        tracer.active = False
        tracer.close(idx)
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    sys.exit(main())
