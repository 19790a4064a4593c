"""End-to-end benchmark of the reproduction: one workload, one result line.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

Every round and every set-up probe runs in a fresh interpreter
(``workloads.py``) with its own temp cache directory and result store
under ``.e2ebench/``, ``src`` on ``PYTHONPATH``, a fixed hash seed and
the ``REPRO_*`` engine, trace and scale toggles cleared, so the program
sees only the inputs the seed generates.

``--trace 0`` reports the end-to-end metrics: set-up time (the median
of several fresh-process set-ups), wall time and peak RSS of the
measured phase, and job throughput and latency percentiles. Cold
workloads run whole cold rounds while another fits in ``--seconds``
(at least one) and report medians over rounds; ``serve-mixed`` runs
its closed loop for ``--seconds``.

``--trace 1`` reports the per-layer metrics: it runs the workload once
untraced and once under the span recorder (``spans.py``), validates
the trace with ``repro.obs.trace.validate_trace``, keeps it under
``.e2ebench/traces/`` and summarizes it, with the tracing overhead as
the ratio of the two runs.

The last line of standard output is the JSON result; a failed round,
a missing ``src`` tree or a child that overruns exits non-zero without
printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".e2ebench"
WORKLOADS = ("paper-cold", "corpus-cold", "serve-mixed")
#: The seed a bare invocation uses (and the one expected.json records).
DEFAULT_SEED = 1
#: Set-ups measured per run (rounds plus set-up-only probes). One for
#: serve-mixed, whose set-up primes every program (~12 s).
SETUPS = {"paper-cold": 7, "corpus-cold": 7, "serve-mixed": 1}
#: Layers whose spans a traced run of each workload must contain.
TRACED_LAYERS = {
    "paper-cold": ("kernels", "partition", "lowered", "machines",
                   "session", "store", "report", "gc"),
    "corpus-cold": ("kernels", "workloads", "partition", "lowered",
                    "machines", "session", "store", "report", "gc"),
    "serve-mixed": ("service", "session", "machines", "store", "gc"),
}
#: Wall-clock limit of one run, child processes included.
RUN_LIMIT_S = 170.0
#: Environment toggles that would select engines, tracing or scale
#: behind the benchmark's back.
CLEARED_ENV = (
    "REPRO_BATCH_ENGINE", "REPRO_EVENT_ENGINE", "REPRO_PERIOD_SKIP",
    "REPRO_TRACE", "REPRO_SCALE",
)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "fresh_job_p50_ms": "ms",
    "fresh_job_p90_ms": "ms",
    "overlap_job_p50_ms": "ms",
    "overlap_job_p90_ms": "ms",
}
SERVICE_UNITS = {
    "service.submit_p50_ms": "ms",
    "service.polls_per_job": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p90_ms": "ms",
    "service.run_p50_ms": "ms",
    "service.run_p90_ms": "ms",
    "service.coalesced": "count",
    "service.rejected_503": "count",
}


class RunFailed(Exception):
    """A child process failed; the run prints no result."""


class Runner:
    """Starts hermetic child processes within the run's time limit."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {
            key: value for key, value in os.environ.items()
            if key not in CLEARED_ENV
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def child(self, *extra: str) -> dict:
        self.count += 1
        tmp = WORK / "tmp" / f"{self.args.workload}-{os.getpid()}-{self.count}"
        shutil.rmtree(tmp, ignore_errors=True)
        command = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--tmp", str(tmp),
            *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed("run time limit reached")
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                timeout=timeout, text=True,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed("child process overran the run limit") from None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RunFailed(f"child exited {done.returncode}")
        return json.loads(lines[-1])


def measure(runner: Runner) -> tuple[list, list]:
    """Run rounds and set-up probes; returns (round results, set-ups)."""
    args = runner.args
    rounds = [runner.child()]
    while args.workload != "serve-mixed":
        walls = [r["e2e"]["wall_s"] for r in rounds]
        if sum(walls) + walls[-1] > args.seconds:
            break
        rounds.append(runner.child())
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUPS[args.workload]:
        setups.append(runner.child("--setup-only")["setup_s"])
    return rounds, setups


def end_to_end(rounds: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        **{name: statistics.median(r["e2e"][name] for r in rounds)
           for name in rounds[0]["e2e"]},
    }


def per_layer(runner: Runner) -> tuple[dict, list]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.trace import validate_trace

    args = runner.args
    trace = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    trace.parent.mkdir(parents=True, exist_ok=True)
    baseline = runner.child()
    traced = runner.child("--trace", str(trace))
    problems = validate_trace(trace)
    problems += spans.check_spans(trace, TRACED_LAYERS[args.workload])
    metrics = spans.summarize(trace)
    metrics.update(dict.fromkeys(SERVICE_UNITS, 0.0))
    metrics.update(traced.get("service", {}))
    # One traced run over one untraced run: a single sample of each,
    # so host speed drift between the two runs is part of the ratio.
    if args.workload == "serve-mixed":
        # The closed loop runs for a fixed time, so tracing shows up as
        # lost throughput rather than as a longer wall.
        metrics["trace.overhead_ratio"] = (
            baseline["e2e"]["jobs_per_s"] / traced["e2e"]["jobs_per_s"]
        )
    else:
        metrics["trace.overhead_ratio"] = (
            traced["e2e"]["wall_s"] / baseline["e2e"]["wall_s"]
        )
    gate = {"attempted": 1, "failed": int(bool(problems)),
            "problems": problems[:5]}
    return metrics, [baseline, traced, gate]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        if args.trace:
            metrics, outcomes = per_layer(runner)
            metric_units = {
                **spans.LAYER_UNITS, **SERVICE_UNITS,
                "trace.overhead_ratio": "ratio",
            }
        else:
            outcomes, setups = measure(runner)
            metrics = end_to_end(outcomes, setups)
            metric_units = END_TO_END
    except RunFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    print(json.dumps({
        "detail": [
            {key: o.get(key) for key in ("samples", "jobs",
                                         "poll_interval_ms", "problems")}
            for o in outcomes
        ],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metric_units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
