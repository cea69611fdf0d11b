"""Run one rkksums CLI sweep in this fresh interpreter and print its timings.

Usage: python3 perfbench/sweep.py SPAWN_TIME MODE -- CLI_ARGS...

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (the monotonic clock is shared by all processes on the machine).
MODE is "sweep" or "trace" (a sweep with per-layer counters).
The last line of standard output is one JSON object: set-up and sweep
seconds, peak resident memory, the CLI exit code, the environment, and in
trace mode the per-layer metrics.  The report itself goes wherever the CLI
arguments send it (--out).
"""

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    spawn = float(sys.argv[1])
    mode = sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import rkksums
    import rkksums.cli as cli

    if not os.path.abspath(rkksums.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rkksums imported from {rkksums.__file__}, not {SRC}")
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    # set-up ends when the CLI has parsed its arguments and enters its run
    marks = {}
    run = getattr(cli, "run", None)
    if callable(run):
        def marked_run(*args, **kwargs):
            marks.setdefault("parsed", time.perf_counter())
            return run(*args, **kwargs)

        cli.run = marked_run

    entered = time.perf_counter()
    crashed = False
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a result, reported to the parent
        import traceback

        traceback.print_exc()
        code, crashed = None, True
    done = time.perf_counter()
    # read before the harness imports anything more, so the figure is the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import json
    import platform

    numpy = sys.modules.get("numpy")
    started = marks.get("parsed", entered)
    result = {
        "setup_s": started - spawn,
        "sweep_s": done - started,
        "peak_rss_mb": peak_rss_mb,
        "exit": code,
        "crashed": crashed,
        "env": {
            "engine": getattr(rkksums, "engine", lambda: "unknown")(),
            "python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", "not loaded"),
        },
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(done - started)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
