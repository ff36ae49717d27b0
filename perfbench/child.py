"""Runs one `qflab run` in this fresh interpreter and writes its timings.

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) run EXPERIMENT ...

The parent sets PYTHONPATH to the checkout's src/ and reads RESULT_JSON:
the monotonic times at which numpy and then `qflab.lab_cli.main` were
imported (REGISTRY is built at import), the wall time of `main`, the peak
resident memory, which `qflab` was imported, and the trace when asked for.
"""

import json
import resource
import sys
import time


def run() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    import numpy  # noqa: F401  (the host-speed probe ends here)
    numpy_at = time.monotonic()
    from qflab.lab_cli.main import main
    imported_at = time.monotonic()
    import qflab

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = main(argv)
    wall_s = time.perf_counter() - start
    result = {
        "imported_at": imported_at,
        "numpy_at": numpy_at,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "qflab_file": qflab.__file__,
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
