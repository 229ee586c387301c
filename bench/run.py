"""Benchmark of the fixsettle CLI: one workload, one seed, one run.

    python3 bench/run.py --workload sweep|certify|perturbed --seed N \
        --seconds S --trace 0|1

Generates the workload's scenario files from the seed, then runs every
operation (one ``fixsettle.cli.main(argv)`` call each) in this process:
one warm-up pass, then whole passes until S seconds have gone.  Every
output of every pass is checked against references computed apart from
the program (``reference.py``, ``checks.py``).

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (median over fresh interpreters of importing fixsettle.cli
and loading the scenario files, each divided by the import baseline timed
in the fresh interpreter before it), ``wall_s`` (one pass: the sum over
operations of each operation's median time across the timed passes) and
``peak_rss_mib`` (a fresh process running one pass).  Operation times are
divided by the machine's slowdown, measured next to each operation
(``calibrate.py``), so they are seconds at a fixed reference speed.  With
``--trace 1`` the public functions of each module are wrapped
(``tracing.py``) and the last line reports the per-layer metrics, medians
over passes.  Results and traces are written under ``.bench_run/`` at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process and no worker threads, children included.  Left alone,
# OpenBLAS starts a thread pool when numpy is imported, and how long that
# takes follows the host's load: it moved the set-up time by 40 %.  Set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


def child(mode: str, arg: Path) -> dict:
    """Run child.py in a fresh interpreter, in this process's environment
    without FIXSETTLE_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "FIXSETTLE_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(SRC), str(arg)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(ops, cli):
    """Run every operation once.

    Returns, per operation, its wall time, the mean slowdown measured just
    before and just after it, and (exit code, output).
    """
    times, slowdowns, results = [], [], []
    before = calibrate.slowdown()
    for op in ops:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(op.argv)
            except SystemExit as err:
                code = f"exit {err.code}"
            except Exception as err:  # a crash is a failed operation, not the end of the run
                code = f"{type(err).__name__}: {err}"
        times.append(time.perf_counter() - start)
        after = calibrate.slowdown()
        slowdowns.append((before + after) / 2)
        before = after
        results.append((code, sink))
    return times, slowdowns, results


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = {}

    def _note(self, kind: str, op, message: str):
        key = (kind, " ".join(op.argv[:1] + [Path(op.config).stem if op.config else ""]))
        self.notes.setdefault(key, message)

    def judge(self, ops, results):
        for op, (code, sink) in zip(ops, results):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self._note("failed", op, f"exit {code}: {sink.getvalue().strip()[-300:]}")
                continue
            try:
                op.check()
            except checks.Failed as err:
                self.failed += 1
                self._note("failed", op, str(err))
            except Exception as err:  # Wrong, or output too malformed to read
                self.wrong += 1
                self._note("wrong", op, f"{type(err).__name__}: {err}")


def bytes_written(out: Path) -> int:
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def measure(args, spec, work: Path):
    plan = workloads.build(args.workload, args.seed, work)
    plan.write()
    configs_file, ops_file = work / "configs.txt", work / "ops.json"
    configs_file.write_text("".join(f"{p}\n" for p in plan.configs), encoding="utf-8")
    ops_file.write_text(json.dumps([op.argv for op in plan.ops]), encoding="utf-8")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    metrics = {}
    if not args.trace:
        samples = [(child("baseline", "-")["baseline_s"], child("setup", configs_file)["setup_s"])
                   for _ in range(SETUP_REPEATS)]
        record["setup_samples"] = samples             # (baseline_s, raw setup_s)
        metrics["setup_s"] = statistics.median(s / b for b, s in samples) * calibrate.BASELINE_REF_S
        metrics["peak_rss_mib"] = child("pass", ops_file)["peak_rss_mib"]

    from fixsettle import cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    tally = Tally()
    *_, results = run_pass(plan.ops, cli)           # warm-up
    tally.judge(plan.ops, results)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    times, raw, layers = [], [], []                 # times[pass][op], at reference speed
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer:
            tracer.reset()
        op_times, slowdowns, results = run_pass(plan.ops, cli)
        times.append([t / s for t, s in zip(op_times, slowdowns)])
        raw.append(sum(op_times))
        if tracer:
            slow = statistics.fmean(slowdowns)
            layer = tracing.layer_metrics(tracer.summary(), bytes_written(plan.out))
            layers.append({k: v / slow if units[k] in ("s", "us") else v for k, v in layer.items()})
        tally.judge(plan.ops, results)
        if time.perf_counter() >= deadline:
            break

    # Of the estimators tried (median pass, per-operation minimum, lower
    # quartile or median), the summed per-operation median varied least
    # between runs.
    wall_s = sum(statistics.median(op) for op in zip(*times))
    record["pass_s"] = [sum(p) for p in times]
    record["raw_pass_s"] = raw
    record["ops_per_pass"] = len(plan.ops)
    if tracer:
        for m in spec["per_layer"]:
            metrics[m["name"]] = statistics.median(layer[m["name"]] for layer in layers)
        absent = [m["name"] for m in spec["per_layer"]
                  if (src := tracing.metric_sources(m["name"])) and all(s in tracer.absent for s in src)]
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        trace = dict(record, wall_s_traced=wall_s, absent_functions=tracer.absent,
                     absent_metrics=absent, layers_per_pass=layers,
                     spans_last_pass=[[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans])
        record["absent_metrics"] = absent
        _dump(RUN_DIR / "traces" / f"{args.workload}-seed{args.seed}.json", trace)
    else:
        metrics["wall_s"] = wall_s

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    return result, dict(record, notes=[[k[0], k[1], v] for k, v in tally.notes.items()])


def _dump(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fixsettle" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'fixsettle'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.environ.pop("FIXSETTLE_THREADS", None)
    sys.path.insert(0, str(SRC))

    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, record = measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _dump(RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
          dict(record, result=result))

    print(f"{args.workload} seed={args.seed}: {len(record['pass_s'])} timed passes of "
          f"{record['ops_per_pass']} operations; attempted={result['attempted']} failed={result['failed']}")
    for kind, op, message in record["notes"]:
        print(f"  {kind}: {op}: {message}")
    for name in record.get("absent_metrics", []):
        print(f"  absent: {name}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
