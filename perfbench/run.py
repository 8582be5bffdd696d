"""Benchmark of the longword package: seeded workloads, checked answers, metrics.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports longword from ``src``.
Every measurement happens in a fresh child process of this script, one
at a time, so peak RSS and warm tables never carry over:

* ``--trace 0``: rounds of the workload's timed phase, on the same
  seeded inputs, for about ``--seconds``; ``solve_s`` and
  ``peak_rss_mib`` are medians over the rounds.  Before each round a
  set-up process times the import of longword plus the workload's first
  call; ``setup_s`` is their median.
* ``--trace 1``: one untraced round of the workload, then one process
  per workload runs a traced round and that workload's layer probes
  (``layers.py``), so every per-layer metric is reported whatever the
  workload.  ``trace.overhead_ratio`` is the named workload's traced
  round over its untraced one.  Spans are written to ``.perfbench/``.

Every answer is checked against an independent route; the last line of
standard output is one JSON object with the counts and the metrics.  The
exit code is 1 when any check failed, 2 when the run could not be made.
``--smoke`` runs every workload both ways at tiny sizes and checks the
metric names and units against ``BENCHMARK.json`` and the layer map in
``metric_map.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from layers import PER_LAYER, TRACED  # noqa: E402
from tracing import Tracer, peak_rss_kib  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Checker  # noqa: E402

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
CHILD_TIMEOUT_S = 170
SPAN_DIR = os.path.join(ROOT, ".perfbench")


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def child(kind: str, workload: str, seed: int, smoke: bool, first: bool = True) -> dict:
    """Run this script as a fresh process and return its one-line JSON result."""
    command = [sys.executable, os.path.abspath(__file__), "--child", kind,
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if first:
        command.append("--first")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{kind} process for {workload} ran past {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{kind} process for {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def check_origin() -> None:
    """Fail unless longword is imported from this checkout's src."""
    import longword

    if os.path.dirname(os.path.dirname(os.path.abspath(longword.__file__))) != SRC:
        raise RunError(f"longword was imported from {longword.__file__}, not from {SRC}")


def run_child(kind: str, workload: str, seed: int, first: bool, smoke: bool) -> dict:
    sz = SMOKE if smoke else FULL
    wl = WORKLOADS[workload]
    check = Checker()
    if kind == "import":
        check_origin()
        return {}
    if kind == "setup":
        start = time.perf_counter()
        answer = wl.first_call(sz, seed)
        setup_s = time.perf_counter() - start
        check_origin()
        wl.check_first(sz, answer, check)
        return {"setup_s": setup_s, "attempted": check.attempted, "failed": check.failed}
    check_origin()
    if kind == "round":
        inputs = wl.prepare(sz, seed)
        untraced = Tracer(enabled=False)
        start = time.perf_counter()
        answers = wl.solve(sz, inputs, untraced)
        solve_s = time.perf_counter() - start
        peak_rss_mib = peak_rss_kib() / 1024
        if first:
            wl.check(sz, inputs, answers, check, untraced)
        return {
            "solve_s": solve_s,
            "digest": hashlib.sha256(repr(answers).encode()).hexdigest(),
            "peak_rss_mib": peak_rss_mib,
            "attempted": check.attempted,
            "failed": check.failed,
        }
    if kind == "traced":
        tr = Tracer(run_id=f"{workload}:{seed}")
        round_s, metrics, notes = TRACED[workload](sz, seed, tr, check)
        os.makedirs(SPAN_DIR, exist_ok=True)
        tr.write(os.path.join(SPAN_DIR, f"spans-{workload}.jsonl"))
        return {"round_s": round_s, "metrics": metrics, "notes": notes,
                "spans": len(tr.spans), "attempted": check.attempted, "failed": check.failed}
    raise RunError(f"unknown child kind {kind}")


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run: its checks, metrics with units, and notes for people."""
    child("import", workload, seed, smoke)  # compiles bytecode outside the timings
    attempted = failed = 0
    notes = []
    if not trace:
        # Each round is a fresh process, so no round inherits another's heap;
        # a set-up sample precedes each round, so both span the same stretch
        # of time.  The first round's answers are checked against independent
        # routes and every later round must repeat them exactly.
        setups, rounds = [], []
        spent = []
        while not rounds or sum(spent) + statistics.median(spent) <= seconds:
            setups.append(child("setup", workload, seed, smoke))
            start = time.perf_counter()
            rounds.append(child("round", workload, seed, smoke, first=not rounds))
            spent.append(time.perf_counter() - start)
        for result in [*setups, *rounds]:
            attempted += result["attempted"]
            failed += result["failed"]
        for index, result in enumerate(rounds[1:], start=1):
            attempted += 1
            if result["digest"] != rounds[0]["digest"]:
                failed += 1
                print(f"check failed: round {index} answers differ from round 0's",
                      file=sys.stderr)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        }
        units = END_TO_END
        notes.append(f"setup_s: median of {len(setups)} fresh processes")
        notes.append(f"solve_s, peak_rss_mib: median of {len(rounds)} fresh processes")
        if workload == "sample":
            trials = (SMOKE if smoke else FULL).sample_trials
            notes.append(f"draws_per_s: {trials / values['solve_s']:.1f} "
                         "(trials / monte_carlo wall)")
    else:
        base = child("round", workload, seed, smoke)
        values = {}
        for name in WORKLOADS:
            result = child("traced", name, seed, smoke)
            values.update(result["metrics"])
            notes.extend(f"{key}: {note}" for key, note in result["notes"].items())
            notes.append(f"{name}: {result['spans']} spans")
            if name == workload:
                values["trace.overhead_ratio"] = result["round_s"] / base["solve_s"]
            attempted += result["attempted"]
            failed += result["failed"]
        attempted += base["attempted"]
        failed += base["failed"]
        units = PER_LAYER
    notes.append(f"fail_ratio: {failed}/{attempted} = {failed / attempted:g}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def check_declared(result: dict, trace: bool) -> None:
    """Fail unless the metric names and units match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        raise RunError(f"metrics {got} do not match BENCHMARK.json's {want}")


def check_metric_map() -> None:
    """Fail unless metric_map.json maps every per-layer metric to declared targets."""
    with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as f:
        moves = json.load(f)["moves"]
    if set(moves) != set(PER_LAYER):
        raise RunError(f"metric_map.json covers {sorted(moves)}, not {sorted(PER_LAYER)}")
    for layer_metric, targets in moves.items():
        for workload, metric in targets:
            if workload not in WORKLOADS or metric not in END_TO_END:
                raise RunError(f"{layer_metric} moves unknown {metric} on {workload}")


def smoke() -> int:
    """Every workload, untraced and traced, at tiny sizes; names and units checked."""
    check_metric_map()
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, 1, 1, trace, smoke=True)
            check_declared(result, trace)
            if not result["correct"]:
                raise RunError(f"smoke {workload} trace={int(trace)} failed a check")
            print(f"smoke ok: {workload} trace={int(trace)}, "
                  f"{len(result['metrics'])} metrics, {result['attempted']} answers checked")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--first", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        result = run_child(args.child, args.workload, args.seed, args.first, args.smoke)
        print(json.dumps(result))
        return 0
    if not os.path.isfile(os.path.join(SRC, "longword", "__init__.py")):
        raise RunError(f"no longword package under {SRC}")
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    check_declared(result, bool(args.trace))
    for note in result.pop("notes"):
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
