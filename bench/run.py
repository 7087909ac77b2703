"""posetkraft benchmark: one workload, one seed, one process, no threads.

    python3 bench/run.py --workload build --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md
for the workloads, the metrics and how the timings are scaled.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import marshal
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
# Host speed drifts by tens of percent within minutes.  Every task is timed
# between two runs of fixed reference work, and its time is scaled to a host
# on which that work takes the nominal time below.
COVER_MAP_S = 0.0035
STARTUP_S = 0.003

TIME_LAYERS = ("perm.enumerate", "poset.cover", "poset.index", "poset.regularity", "poset.shadow",
               "poset.export", "poset.format", "lym.resolve", "lym.check", "lym.counterexample",
               "lym.search", "lym.mcmillan", "codes.free", "codes.ud", "codes.constants",
               "codes.coding")
COUNTS = ("perm.elements", "poset.edges", "lym.search_nodes", "lym.codewords")


def cover_map_work() -> None:
    """Pure-Python work shaped like a cover map: tuple slicing, dict
    building and lookups, sorting."""
    lower = {w: i for i, w in enumerate(itertools.product(range(3), repeat=5))}
    cover = {}
    for j, w in enumerate(itertools.product(range(3), repeat=6)):
        for p in range(6):
            key = (lower[w[:p] + w[p + 1:]], j)
            cover[key] = cover.get(key, 0) + 1
    sorted(cover)


class Reference:
    """Fixed work that calls nothing in posetkraft, timed around every task.

    The in-process workloads use a cover-map loop.  The cli workload's
    children spend most of their time starting up, which drifts apart from
    that loop, so it adds loading and running a fixed compiled module, as an
    import does.
    """

    def __init__(self, workload: str):
        self.startup = workload == "cli"
        self.nominal = COVER_MAP_S + STARTUP_S if self.startup else COVER_MAP_S
        if self.startup:
            parts = []
            for i in range(300):
                parts.append(f"def f{i}(a, b=({i}, 'k{i}')):\n    return [a, b, {{'x{i}': {i}.5}}]\n")
                parts.append(f"class C{i}:\n    name = 'c{i}'\n\n    def m(self):\n"
                             f"        return self.name\n")
            self.blob = marshal.dumps(compile("".join(parts), "<reference>", "exec"))

    def time(self) -> float:
        start = perf_counter()
        cover_map_work()
        if self.startup:
            exec(marshal.loads(self.blob), {})
        return perf_counter() - start

    def scale(self, duration: float, before: float, after: float) -> float:
        return duration * self.nominal / ((before + after) / 2)


class Run:
    """The timed phase of one run: samples, failures and reference times."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = Reference(workload)
        self.latencies: list[float] = []  # scaled seconds per task that passed its checks
        self.refs: list[float] = []
        self.attempted = self.failed = self.wrong = 0
        self.child_rss_kib = 0
        self.rounds = 0

    def note(self, what: str) -> None:
        if self.failed <= 5:
            print(f"{self.workload}: {what}", file=sys.stderr)

    def attempt(self, task, tracer=None) -> float | None:
        """Run, time and check one task; its scaled time, or None if it failed."""
        import workloads

        self.attempted += 1
        gc.collect()
        before = self.refs[-1]
        start = perf_counter()
        try:
            if tracer is None:
                out = task.run()
            else:
                with tracer.span("bench.task", task.label):
                    out = task.run()
        except Exception:
            self.failed += 1
            self.note(f"{task.label} raised:\n{traceback.format_exc()}")
            return None
        finally:
            duration = perf_counter() - start
            self.refs.append(self.reference.time())
        try:
            task.verify(out)
        except Exception as exc:  # a malformed output is a wrong answer too
            self.failed += 1
            self.wrong += 1
            kind = "wrong answer" if isinstance(exc, workloads.CheckFailed) else repr(exc)
            self.note(f"{task.label}: {kind}: {exc}")
            return None
        if "result" in out:  # a CLI child: (exit code, stdout, stderr, peak RSS)
            self.child_rss_kib = max(self.child_rss_kib, out["result"][3])
        return self.reference.scale(duration, before, self.refs[-1])


def run_setup_child(args, target: Path, env: dict, reference: Reference) -> float:
    """Seconds from spawning a child interpreter to the end of its input
    generation and fixture writing, scaled like the task times."""
    import workloads

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", str(target)]
    before = reference.time()
    start = perf_counter()
    code, out, err, _ = workloads.run_child(argv, str(ROOT), env)
    if code != 0:
        raise RuntimeError(f"set-up child exited with {code}: {err[-500:]}")
    finished = float(out.split()[-1])  # the child's perf_counter: one system-wide clock
    return reference.scale(finished - start, before, reference.time())


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(run: Run, setups: list) -> dict:
    lat = run.latencies
    if run.workload == "cli":
        rss_mb = run.child_rss_kib / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "tasks_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * percentile(lat, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(run: Run, tracer, controls: dict) -> dict:
    factor = run.reference.nominal / statistics.median(run.refs)

    def per_round(seconds):
        return seconds * factor / run.rounds

    metrics = {}
    for layer in TIME_LAYERS:
        metrics[f"{layer}_s"] = {"value": per_round(tracer.self_time.get(layer, 0.0)), "unit": "s"}
    for name in COUNTS:
        total = tracer.counts.get(name, 0)
        metrics[name] = {"value": total // run.rounds, "unit": "count"}
    search_s = tracer.self_time.get("lym.search", 0.0) * factor
    nodes = tracer.counts.get("lym.search_nodes", 0)
    metrics["lym.nodes_per_s"] = {"value": nodes / search_s if search_s else 0.0, "unit": "1/s"}
    for name in ("interpreter", "import", "main"):
        samples = controls.get(name)
        metrics[f"cli.{name}_s"] = {"value": statistics.median(samples) if samples else 0.0,
                                    "unit": "s"}
    metrics["bench.ref_ms"] = {"value": 1000 * statistics.median(run.refs), "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "certify", "codes", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "posetkraft" / "__init__.py").is_file():
        print(f"error: no posetkraft sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = workloads.cli_env(str(ROOT))
    if args.setup_only:
        target = Path(args.setup_only)
        target.mkdir(parents=True, exist_ok=True)
        fixtures = str(target) if args.workload == "cli" else None
        workloads.make_rounds(args.workload, args.seed, fixtures=fixtures, env=env)
        print(repr(perf_counter()))
        return 0

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload)
        setups = [run_setup_child(args, run_dir / f"setup{i}", env, run.reference)
                  for i in range(SETUP_RUNS)]
        fixtures = str(run_dir / "fixtures")
        rounds = workloads.make_rounds(args.workload, args.seed, fixtures=fixtures, env=env)
        tracer = controls = twins = None
        if args.trace:
            import tracer as tracing

            tracer, controls = tracing.Tracer(), {"interpreter": [], "import": [], "main": []}
            if args.workload == "cli":
                twins = workloads.make_rounds("cli", args.seed, fixtures=fixtures, env=env,
                                              in_process=True)
            tracing.install(tracer)
        try:
            timed_phase(run, rounds, args.seconds, tracer, twins, controls, env)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not run.latencies:
        print(f"error: no {args.workload} task passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        lat = run.latencies
        print(f"traced {args.workload}: latency_p50_ms={1000 * statistics.median(lat):.2f} "
              f"tasks_per_s={len(lat) / sum(lat):.3f} rounds={run.rounds}", file=sys.stderr)
        metrics = per_layer(run, tracer, controls)
    else:
        metrics = end_to_end(run, setups)
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def timed_phase(run: Run, rounds: list, seconds: float, tracer, twins, controls, env) -> None:
    """Whole rounds until the time is up and enough samples are taken."""
    import workloads

    run.refs.append(run.reference.time())
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (len(run.latencies) >= MIN_SAMPLES or elapsed >= 3 * seconds):
            break
        index = run.rounds % len(rounds)
        for i, task in enumerate(rounds[index]):
            latency = run.attempt(task, tracer)
            if latency is not None:
                run.latencies.append(latency)
            if twins is not None:
                latency = run.attempt(twins[index][i], tracer)
                if latency is not None:
                    controls["main"].append(latency)
        if twins is not None:
            for name, code in (("interpreter", "pass"), ("import", "import posetkraft.cli")):
                begin = perf_counter()
                workloads.run_child([sys.executable, "-c", code], str(ROOT), env)
                controls[name].append(run.reference.scale(perf_counter() - begin, run.refs[-1],
                                                          run.refs[-1]))
        run.rounds += 1


if __name__ == "__main__":
    sys.exit(main())
