"""Measurements that need a fresh interpreter.

    python3 child.py setup SRC LIST   time to import fixsettle.cli and load
                                      every scenario file named in LIST,
                                      one path per line
    python3 child.py baseline SRC -   time to import calibrate.BASELINE_MODULES
    python3 child.py pass SRC OPS     run every argv in the JSON list OPS once
                                      through fixsettle.cli.main; report peak RSS

Each prints one JSON line.  The parent passes the source directory, so the
child imports the checkout's program and, of the benchmark, only
``calibrate``, which imports nothing but the standard library.  Before a
timed import the child loads nothing beyond ``sys`` and ``time``, so the
time covers what a fresh CLI process loads.
"""

import sys
import time


def setup(listing: str) -> dict:
    with open(listing, encoding="utf-8") as fh:
        paths = fh.read().splitlines()
    start = time.perf_counter()
    import fixsettle.cli  # noqa: F401
    from fixsettle.config import load_config
    for path in paths:
        load_config(path)
    return {"setup_s": time.perf_counter() - start}


def baseline() -> dict:
    import calibrate

    return {"baseline_s": calibrate.import_baseline()}


def one_pass(ops_file: str) -> dict:
    import contextlib
    import io
    import json
    import resource

    with open(ops_file, encoding="utf-8") as fh:
        ops = json.load(fh)
    from fixsettle import cli
    for argv in ops:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(argv)
            except (SystemExit, Exception):  # counted by the parent's passes, not here
                pass
    # ru_maxrss is in KiB on Linux.
    return {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    mode, src, arg = sys.argv[1:4]
    sys.path.insert(0, src)
    result = setup(arg) if mode == "setup" else baseline() if mode == "baseline" else one_pass(arg)
    import json

    print(json.dumps(result))
