"""One benchmark pass in a fresh interpreter.

Reads a JSON request on standard input and writes one JSON reply on
standard output.  Modes:

* setup: import blocksel and load every document; report the time and
  the reference slices timed after it.
* solve: set up, then solve every document in order, each under a wall
  cap, while a Sampler times reference slices from inside the solves;
  with "trace" the layer spans of spans.py are recorded.
* check: the correctness gate.  Compares each reported solution with the
  brute-force reference and recomputes its residual, in exact arithmetic.

The program is imported from the "src" directory named in the request, so
the pass measures the checkout it runs in.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

SLICE_ITERATIONS = 250  # one reference slice, about 3 ms on the reference machine
SAMPLE_EVERY_S = 0.05  # process CPU time between two slices taken inside a pass
MIN_SAMPLES = 4  # a solve with fewer slices inside it borrows the latest ones


class CapExceeded(Exception):
    pass


def reference_slice() -> float:
    """Time a fixed piece of pure-Python work that never calls the program.

    Rational arithmetic, a small dict and a sort, like the solver's inner
    loops.  run.py divides solve and set-up times by the slices timed in
    the same process at the same moments, so a host that runs slower for a
    while slows both and the ratio stays put.
    """
    start = time.perf_counter()
    seen: dict = {}
    acc = Fraction(0)
    for i in range(SLICE_ITERATIONS):
        if i % 40 == 0:
            acc = Fraction(i % 7 + 1, 3)
        a = Fraction(i % 101 + 1, i % 103 + 2)
        b = Fraction(i % 107 + 3, i % 109 + 1)
        acc = acc + a * b - b / a
        key = (acc.numerator % 1009, acc.denominator % 1013)
        seen[key] = seen.get(key, 0) + 1
    sorted(seen.items())
    return time.perf_counter() - start


class Sampler:
    """Reference slices timed from inside the running program.

    A SIGPROF timer interrupts the pass every SAMPLE_EVERY_S of CPU time and
    runs one slice in the handler, so the slices see the host's speed while
    a solve runs, not just before and after it.  A solve's own time is its
    wall time less the slices that ran inside it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_prof(self, signum, frame) -> None:
        self.samples.append(reference_slice())

    def start(self) -> float:
        """Take MIN_SAMPLES slices, start the timer; the slices' mean."""
        self.samples += [reference_slice() for _ in range(MIN_SAMPLES)]
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return statistics.mean(self.samples)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def now(self) -> tuple[float, int]:
        """The clock and the slice count, read with no slice in between.

        A slice held back here runs right after, so it lands inside the
        stretch that this reading starts, or after the one it ends.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return time.perf_counter(), len(self.samples)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def since(self, mark: int, last: int) -> tuple[float, float]:
        """Time spent in slices mark..last-1, and the reference time for
        that stretch: the mean of those slices, or of the latest MIN_SAMPLES
        up to `last` if fewer ran."""
        inside = self.samples[mark:last]
        pool = inside if len(inside) >= MIN_SAMPLES else self.samples[last - MIN_SAMPLES : last]
        return sum(inside), statistics.mean(pool)


def _on_alarm(signum, frame):
    raise CapExceeded


def _setup(texts: list[str]) -> tuple[list, float]:
    """Import the program and build the instances; the set-up time."""
    start = time.perf_counter()
    import blocksel.cli

    instances = [blocksel.cli.load_instance(text) for text in texts]
    return instances, time.perf_counter() - start


def _solve(request: dict) -> dict:
    recorder = None
    if request["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    instances, setup_s = _setup(request["docs"])
    import blocksel

    cap = request["cap_s"]
    stop_at = time.perf_counter() + request["budget_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = Sampler()
    setup_ref = sampler.start()
    gross_s = sampled_s = 0.0
    results = []
    for instance in instances:
        if time.perf_counter() >= stop_at:
            results.append({"ok": False, "reason": "run budget", "t": 0.0, "ref": setup_ref})
            continue
        start, mark = sampler.now()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                solution = blocksel.solve(instance)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CapExceeded:
            reason = "cap"
        except blocksel.BudgetExceededError:
            reason = "budget"
        else:
            reason = None
        end, last = sampler.now()
        took = end - start
        in_slices, ref = sampler.since(mark, last)
        gross_s += took
        sampled_s += in_slices
        timing = {"t": took - in_slices, "ref": ref}
        if reason is not None:
            results.append({"ok": False, "reason": reason, **timing})
            continue
        results.append(
            {
                "ok": True,
                **timing,
                "objective": str(solution.objective),
                "x": [str(v) for v in solution.x],
                "mu": None if solution.mu is None else str(solution.mu),
                "support": list(solution.support),
            }
        )
    sampler.stop()
    reply = {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        # Share of solve time not spent in slices, for the span totals.
        "net_share": 1.0 - sampled_s / gross_s if gross_s else 1.0,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if recorder is not None:
        reply["trace"] = recorder.snapshot()
    return reply


def _check(request: dict) -> dict:
    """Mismatch messages for the solutions in request["items"].

    Each item is one group of documents that differ only in sigma, with the
    solver's result for each; one brute-force enumeration serves the group.
    """
    from fractions import Fraction

    import blocksel.cli
    from blocksel.oracle import brute_force, brute_force_levels
    from blocksel.model import residual_norm2

    problems = []
    for item in request["items"]:
        instances = [blocksel.cli.load_instance(text) for text in item["docs"]]
        if len(instances) == 1:
            refs = {instances[0].sigma: brute_force(instances[0]).objective}
        else:
            top = max(inst.sigma for inst in instances)
            levels = brute_force_levels(instances[0], levels=top)
            refs = {s: levels[s].objective for s in range(top + 1)}
        for index, instance, result in zip(item["index"], instances, item["results"]):
            where = f"document {index} (sigma {instance.sigma})"
            objective = Fraction(result["objective"])
            x = [Fraction(v) for v in result["x"]]
            mu = None if result["mu"] is None else Fraction(result["mu"])
            support = set(result["support"])
            if objective != refs[instance.sigma]:
                problems.append(
                    f"{where}: objective {objective} != brute force {refs[instance.sigma]}"
                )
            if residual_norm2(instance, x, mu) != objective:
                problems.append(f"{where}: residual of x differs from the objective")
            if len(support) > instance.sigma:
                problems.append(f"{where}: support of size {len(support)} exceeds sigma")
            if any(v != 0 and i not in support for i, v in enumerate(x)):
                problems.append(f"{where}: x is nonzero outside its support")
    return {"problems": problems}


def main() -> None:
    request = json.load(sys.stdin)
    sys.path.insert(0, request["src"])
    mode = request["mode"]
    if mode == "setup":
        setup_s = _setup(request["docs"])[1]
        refs = [reference_slice() for _ in range(MIN_SAMPLES)]
        reply = {"setup_s": setup_s, "setup_ref": statistics.mean(refs)}
    elif mode == "solve":
        reply = _solve(request)
    elif mode == "check":
        reply = _check(request)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
