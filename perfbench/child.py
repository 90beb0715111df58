"""One experiment in a fresh process: set up, run, report as one JSON line.

Usage: python3 child.py CONFIG_FILE TRACE(0|1) SPANS_FILE

Set-up time covers the import of ``mks`` (numpy and scipy included), then
``parse_config`` and ``build_runtime``; the wall time covers
``run_experiment`` until its result files are written.  With TRACE=1 the
experiment runs under ``tracing.Tracer`` and the spans are written to
SPANS_FILE after the wrappers have been restored.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv):
    config_file, trace, spans_file = argv[1], argv[2] == "1", argv[3]
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    setup_start = time.perf_counter()
    import mks
    import mks.harness
    from mks.config import build_runtime, parse_config

    if not os.path.abspath(mks.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported mks from {mks.__file__}, not {src}")
    cfg = parse_config(Path(config_file).read_text())
    build_runtime(cfg)
    setup_s = time.perf_counter() - setup_start

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        # looked up at call time, so the traced run sees the wrapper
        report, status = mks.harness.run_experiment(cfg, workers=1)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "status": status,
        "events": report.events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["missing"] = tracer.missing
        result["leftover_wrappers"] = tracer.leftover_wrappers()
        Path(spans_file).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
