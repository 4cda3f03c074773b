"""Benchmark of the exact block-structured subset selector.

    python3 perfbench/run.py --workload cover-blocks --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its "src"
directory.  One run generates the workload's documents from the seed,
then, each in a fresh single-threaded interpreter:

1. sets up several times (import blocksel, load every document) to time
   set-up on its own;
2. solves every document in order, pass after pass, while the next pass
   still fits in --seconds (at least one pass);
3. checks every answer against brute force, outside the timed region.

Every time reported is in reference seconds: the measured time times
REF_NOMINAL_S over the time of a fixed reference slice of pure-Python work
(worker.reference_slice) timed in the same process at the same moments.
The host this was built on changes speed by a third within seconds, and
the slices slow with it, so the ratio measures the program rather than the
host.  On a host at the reference speed one reference second is one second;
the summary line before the result also gives the raw seconds.

Passes are sequential and closed-loop: one solve at a time.  Every pass
starts a fresh interpreter so the solver's module-level caches never carry
over from one pass to the next; within a pass they work as in any caller.
A solve that is refused (BudgetExceededError) or runs over the workload's
wall cap counts as failed; no document is ever dropped.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
passes alternate between untraced and traced, and the result holds the
per-layer metrics of spans.py plus the tracing overhead.  The last line
of standard output is the JSON result; the lines before it say the same
for a reader.  A wrong answer prints "correct": false and exits with 1.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 10  # set-up samples per run, after one warm-up
REF_NOMINAL_S = 0.0035  # reference slice time on the reference machine
PASS_LIMIT_S = 120.0  # no solve starts after this point of a run
RUN_LIMIT_S = 170.0  # the gate must end by this point of a run
GATE_WORKERS = 2


class BenchError(Exception):
    pass


def call_worker(request: dict, timeout: float) -> dict:
    """Run worker.py on one request in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps({"src": str(SRC), **request}),
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def machine_facts() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def run_pass(texts: list[str], cap_s: float, trace: bool, budget_s: float) -> dict:
    request = {
        "mode": "solve",
        "docs": texts,
        "cap_s": cap_s,
        "trace": trace,
        "budget_s": max(budget_s, 0.0),
    }
    try:
        return call_worker(request, timeout=budget_s + cap_s + 30.0)
    except subprocess.TimeoutExpired:
        failed = {"ok": False, "reason": "pass timeout", "t": 0.0, "ref": REF_NOMINAL_S}
        return {"setup_s": None, "rss_mib": None, "results": [failed] * len(texts)}


def gate(docs: list, answers: dict[int, dict], timeout: float) -> list[str]:
    """Brute-force check of one answer per solved document, split over workers."""
    groups: dict[int, list[int]] = {}
    for index in sorted(answers):
        groups.setdefault(docs[index].group, []).append(index)
    items = [
        {
            "index": indices,
            "docs": [docs[i].text for i in indices],
            "results": [answers[i] for i in indices],
        }
        for indices in groups.values()
    ]
    # Largest first onto the lighter worker; document length stands in for cost.
    shares: list[list[dict]] = [[] for _ in range(GATE_WORKERS)]
    loads = [0] * GATE_WORKERS
    for item in sorted(items, key=lambda it: -sum(map(len, it["docs"]))):
        k = loads.index(min(loads))
        shares[k].append(item)
        loads[k] += sum(map(len, item["docs"]))
    with concurrent.futures.ThreadPoolExecutor(GATE_WORKERS) as pool:
        futures = [
            pool.submit(call_worker, {"mode": "check", "items": share}, timeout)
            for share in shares
            if share
        ]
        return [p for f in futures for p in f.result()["problems"]]


def scaled(seconds: float, ref: float) -> float:
    """Measured seconds in reference seconds, given the reference slice time."""
    return seconds * REF_NOMINAL_S / ref


def solve_times(passes: list[dict], n_docs: int, raw: bool = False) -> list[float]:
    """Per document, the median of its solve times over the given passes."""
    return [
        statistics.median(
            r["t"] if raw else scaled(r["t"], r["ref"]) for r in (p["results"][i] for p in passes)
        )
        for i in range(n_docs)
    ]


def scaled_trace(reply: dict) -> dict:
    """A traced pass's span totals with seconds in reference seconds.

    Slices that ran inside a span count in its time, so span seconds are
    also cut by the pass's share of solve time spent outside slices.
    """
    ref = statistics.mean(r["ref"] for r in reply["results"]) / reply["net_share"]
    totals = {
        name: {**t, "s": scaled(t["s"], ref), "self_s": scaled(t["self_s"], ref)}
        for name, t in reply["trace"]["totals"].items()
    }
    return {**reply["trace"], "totals": totals}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blocksel" / "__init__.py").is_file():
        print(f"error: no blocksel sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    docs = workloads.generate(args.workload, args.seed)
    texts = [doc.text for doc in docs]
    cap_s = workloads.CAP_S[args.workload]
    print(f"machine: {machine_facts()}")

    setups = []
    for probe in range(SETUP_PROBES + 1):
        reply = call_worker({"mode": "setup", "docs": texts}, timeout=60.0)
        if probe:  # the first one also compiles bytecode
            setups.append(scaled(reply["setup_s"], reply["setup_ref"]))

    plain: list[dict] = []
    traced: list[dict] = []
    window = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        begun = time.perf_counter()
        reply = run_pass(texts, cap_s, trace, PASS_LIMIT_S - (begun - started))
        (traced if trace else plain).append(reply)
        now = time.perf_counter()
        need_traced = bool(args.trace) and not traced
        if not need_traced and now - window + (now - begun) > args.seconds:
            break
        if now - started > PASS_LIMIT_S:
            break

    all_passes = plain + traced
    attempted = len(docs) * len(all_passes)
    failed = sum(not r["ok"] for p in all_passes for r in p["results"])
    answers: dict[int, dict] = {}
    problems = []
    for p in all_passes:
        for i, r in enumerate(p["results"]):
            if not r["ok"]:
                continue
            answer = {key: value for key, value in r.items() if key not in ("t", "ref")}
            if i not in answers:
                answers[i] = answer
            elif answers[i] != answer:
                problems.append(f"document {i}: passes disagree")
    try:
        problems += gate(docs, answers, RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: the brute-force gate did not finish in time", file=sys.stderr)
        return 2
    correct = not problems
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)

    untraced_times = solve_times(plain, len(docs))
    wall_s = sum(untraced_times)
    print(
        f"workload {args.workload} seed {args.seed}: {len(docs)} documents, "
        f"{len(plain)} untraced and {len(traced)} traced passes, "
        f"{attempted} solves attempted, {failed} failed"
    )
    if args.trace:
        snapshots = [scaled_trace(p) for p in traced if "trace" in p]
        if not snapshots:
            raise BenchError("no traced pass finished")
        metrics, absent = spans.layer_metrics(snapshots)
        overhead = sum(solve_times(traced, len(docs))) / wall_s
        metrics["trace.overhead"] = (overhead, "ratio")
        print(f"{'span (per pass)':<32}{'self_s':>10}{'incl_s':>10}{'calls':>10}")
        for name, self_s, incl_s, calls in spans.self_time_table(snapshots):
            print(f"{name:<32}{self_s:>10.4f}{incl_s:>10.4f}{calls:>10}")
        if absent:
            print("absent: " + ", ".join(absent))
    else:
        measured = [p for p in plain if p["rss_mib"] is not None]
        if not measured:
            raise BenchError("no solving pass finished")
        metrics = {
            "wall_s": (wall_s, "s"),
            "solve_s.p50": (statistics.median(untraced_times), "s"),
            "peak_rss_mib": (statistics.median(p["rss_mib"] for p in measured), "MiB"),
            "setup_s": (
                statistics.median(setups + [scaled(p["setup_s"], p["setup_ref"]) for p in measured]),
                "s",
            ),
        }
        print(
            " | ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
            + f" | failed_frac {failed / attempted:.6g}"
            + f" | raw wall_s {sum(solve_times(plain, len(docs), raw=True)):.6g} s"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
