"""wordavoid benchmark: one closed-loop client, one question at a time.

    python3 perfbench/run.py --workload {enumerate,construct,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 the workload's question
list is asked in whole passes until S seconds have gone, and the last line
of stdout is a JSON object with the end-to-end metrics.  With --trace 1 the
run instead traces every workload and reports the per-layer metrics.  Each
answer is checked against the benchmark's own values (checks.py) outside
the timed windows.  perfbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from statistics import median

import checks
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 15


class Tally:
    """Questions attempted, failed (raised, non-zero exit, or wrong), and
    wrong (ran to completion but failed the check)."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, question, problem: str | None, wrong: bool) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.wrong += wrong
            print(f"FAILED {question.label}: {problem}", file=sys.stderr)


def ask(question, ref, tally: Tally, tracer=None) -> tuple[float, bool, object]:
    """Ask one question; return its timed wall, whether it passed, and the
    raw outcome (an answer, or a workloads.Completed for cli)."""
    kwargs = {}
    if tracer is not None:
        span = tracer.begin(f"question.{question.label}")
        if question.metric:
            kwargs["trace_file"] = os.path.join(OUT, "cli-spans.json")
    start = time.perf_counter()
    try:
        answer = question.call(**kwargs)
        problem = None
    except Exception as exc:  # a raising question is a failed one; keep asking
        answer, problem = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end(span)
    if isinstance(answer, workloads.Completed):
        if kwargs:
            with open(kwargs["trace_file"]) as fh:
                tracer.adopt(json.load(fh), span)
            os.remove(kwargs["trace_file"])
        if answer.code != 0:
            problem = f"exit {answer.code}: {answer.stderr.strip()[-200:]}"
    wrong = False
    if problem is None:
        output = answer.stdout if isinstance(answer, workloads.Completed) else answer
        problem = checks.check(question, output, ref)
        wrong = problem is not None
    tally.add(question, problem, wrong)
    return wall, problem is None, answer


def one_pass(questions, ref, tally: Tally, tracer=None) -> tuple[float, int, int]:
    """One pass over the list: (summed wall of its questions, questions
    passed, largest child peak RSS in KB)."""
    wall = 0.0
    passed = 0
    child_rss = 0
    if tracer:
        tracer.install()
    try:
        for q in questions:
            w, ok, outcome = ask(q, ref, tally, tracer)
            wall += w
            passed += ok
            if isinstance(outcome, workloads.Completed):
                child_rss = max(child_rss, outcome.maxrss_kb)
            del outcome  # a construction answer can hold 100 MB
    finally:
        if tracer:
            tracer.uninstall()
    return wall, passed, child_rss


def fresh_interpreter_s(args: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=workloads.child_env(ROOT),
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class SetupProbes:
    """Fresh interpreters that import wordavoid and build the inputs.  One
    unmeasured start first, so bytecode caches exist; the measured ones are
    spread over the run, since the machine's speed drifts within seconds."""

    def __init__(self, workload: str, seed: int):
        self.argv = [os.path.join(ROOT, "perfbench", "setup_probe.py"), workload, str(seed)]
        self.times: list[float] = []
        fresh_interpreter_s(self.argv)

    def take_until(self, count: int) -> None:
        while len(self.times) < count:
            self.times.append(fresh_interpreter_s(self.argv))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> dict:
    questions = workloads.build(workload, seed, ROOT)
    ref = checks.references(workload, questions)
    probes = SetupProbes(workload, seed)
    tally = Tally()
    walls, rates, child_rss = [], [], 0
    start = time.perf_counter()
    while True:
        wall, passed, rss = one_pass(questions, ref, tally)
        walls.append(wall)
        rates.append(passed / wall)
        child_rss = max(child_rss, rss)
        elapsed = time.perf_counter() - start
        probes.take_until(min(SETUP_PROBES, int(SETUP_PROBES * elapsed / seconds)))
        if elapsed >= seconds:
            break
    probes.take_until(SETUP_PROBES)
    if workload == "cli":
        peak_kb = child_rss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{workload}: {len(walls)} passes of {len(questions)} questions", file=sys.stderr)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "wall_s": metric(median(walls), "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            "setup_s": metric(median(probes.times), "s"),
            "questions_per_s": metric(median(rates), "1/s"),
        },
    }


def tree_peak_mb(questions) -> float:
    """tracemalloc peak of each build_tree question, in its own pass."""
    peak = 0
    for q in questions:
        if q.check == "build_tree":
            tracemalloc.start()
            q.call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    return peak / 2**20


def import_s() -> float:
    """`import wordavoid` as timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import wordavoid; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(ROOT),
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Rounds of: an untraced pass of `workload`, then a traced pass of
    every workload, for as many whole rounds as fit in `seconds` (at least
    one).  Per-layer figures are medians over rounds."""
    questions = {w: workloads.build(w, seed, ROOT) for w in workloads.WORKLOADS}
    refs = {w: checks.references(w, questions[w]) for w in workloads.WORKLOADS}
    command_metric = {f"question.{q.label}": q.metric for q in questions["cli"]}
    tally = Tally()
    rounds, spans = [], []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        plain, _, _ = one_pass(questions[workload], refs[workload], tally)
        t = tracing.Tracer()
        traced = {}
        for w in workloads.WORKLOADS:
            traced[w], _, _ = one_pass(questions[w], refs[w], tally, t)
        figures = tracing.layer_metrics(t.spans)
        figures["trace.overhead_s"] = traced[workload] - plain
        for name, start, end, _, _ in t.spans:
            if name in command_metric:
                figures[command_metric[name]] = end - start
        rounds.append(figures)
        spans.append(t.spans)
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    values = tracing.combine(rounds, {name for name, unit in units.items() if unit == "count"})
    values["paths.tree_peak_mb"] = tree_peak_mb(questions["construct"])
    values["cli.interpreter_s"] = median(fresh_interpreter_s(["-c", "pass"]) for _ in range(5))
    values["cli.import_s"] = median(import_s() for _ in range(5))
    with open(os.path.join(OUT, f"trace-{workload}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": spans}, fh)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: metric(values[name], units[name]) for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wordavoid", "__init__.py")):
        print(f"perfbench: no wordavoid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    run = trace if args.trace else measure
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
