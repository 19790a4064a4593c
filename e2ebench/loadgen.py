"""Closed-loop load generator for the ``serve-mixed`` workload.

Two client threads share one seeded job stream, in a process of their
own (:func:`measured_phase`; set-up primes from the server's process
with :func:`closed_loop`). Each sends its next job only after its
previous one finished (a closed loop: a slow server receives less
load). A job is submitted and polled with the stock ``ServiceClient``
(``submit``, then ``result`` every :data:`POLL_S` seconds while it
answers 202, in place of ``wait``'s 50 ms), and timed from the first
submit attempt to the fetched rows.

Latency has two clocks: the client's (submit to fetch, what a user
sees) and the server's ``submitted``/``started``/``finished`` stamps
in the job payload, which split a job's time into queue wait and run
time. A 503 is honoured by sleeping its ``Retry-After`` and counted as
a retry; failed or cancelled jobs and HTTP errors count as failed
jobs.

The stream mixes three kinds of job:

* ``fresh``: a single point no earlier job asked for (mostly fixed
  memory, a minority of cache/banked/prefetch);
* ``overlap``: a new sweep of :data:`OVERLAP_POINTS` primed points,
  served from a worker's memory, the disk cache or the store;
* ``repeat``: an exact resubmission of a recent job, which the
  scheduler coalesces.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
import threading
import time

from repro.api.spec import MemorySpec, Point, Sweep, point_to_dict
from repro.errors import QueueFullError, ServiceError
from repro.service import ServiceClient

#: Seconds between two polls of one job: fine enough that latencies
#: are not quantised to the stock client's 50 ms.
POLL_S = 0.005

PROGRAMS = ("adm", "dyfesm", "flo52q", "mdg", "qcd", "track", "trfd")
MACHINES = ("dm", "swsm")
PRIME_WINDOWS = (16, 64)
PRIME_DIFFERENTIALS = (0, 60)

#: Job kinds and their shares of the stream. An assumption: no usage
#: data, test or document of the repository gives a job mix (README.md
#: says which metrics depend on which share).
MIX = (("fresh", 0.45), ("overlap", 0.40), ("repeat", 0.15))
#: Memory kinds of fresh points and their shares. Also an assumption,
#: "mostly fixed": fixed memory is what figures 4-9 and table 1 use;
#: the other kinds appear only in ablations.
FRESH_MEMORY = (("fixed", 0.7), ("cache", 0.1), ("banked", 0.1),
                ("prefetch", 0.1))

#: The points set-up evaluates; the program varies fastest, so the two
#: workers compile different programs at the same time.
PRIMED = tuple(Sweep.grid(
    window=PRIME_WINDOWS, memory_differential=PRIME_DIFFERENTIALS,
    machine=MACHINES, program=PROGRAMS,
).points())
#: Points per overlap sweep: a fixed size keeps the overlap latency
#: distribution about contention and the read path, not sweep size.
#: With four points half the jobs took 4-8 ms and most of the rest
#: 11-45 ms, and the median fell in the gap between the two groups;
#: sixteen points give a median inside a dense part of the distribution.
OVERLAP_POINTS = 16
OVERLAP_AXIS = ("program", "machine", "window", "memory_differential")


def prime_jobs():
    """The set-up jobs: every primed point, as a single-point job.

    Point jobs rather than one sweep: a sweep takes the batch planner,
    whose 2- and 4-lane groups took 15-17 s for these points against
    5-7 s point by point (paper-cold carries the batch path).
    """
    lock = threading.Lock()
    bodies = iter(
        {"kind": "point", "spec": point_to_dict(point)} for point in PRIMED
    )

    def next_job():
        with lock:
            body = next(bodies, None)
        return None if body is None else ("prime", body)

    return next_job


def _pick(rng: random.Random, weighted) -> str:
    roll, total = rng.random(), 0.0
    for value, share in weighted:
        total += share
        if roll < total:
            return value
    return weighted[-1][0]


class JobStream:
    """The seeded job sequence: the same seed gives the same jobs."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"e2ebench:serve-mixed:{seed}")
        self._lock = threading.Lock()
        self._seen: set = set()
        self._recent: list[tuple[str, dict]] = []
        self.issued = 0

    def next(self) -> tuple[str, dict]:
        """The next job as ``(kind, request body)``."""
        with self._lock:
            kind = _pick(self._rng, MIX) if self.issued >= 2 else "fresh"
            if kind == "repeat":
                _, body = self._rng.choice(self._recent[-20:])
            else:
                body = self._fresh() if kind == "fresh" else self._overlap()
                self._recent.append((kind, body))
            self.issued += 1
            return kind, body

    def _fresh(self) -> dict:
        rng = self._rng
        while True:
            window = rng.randrange(8, 161)
            if window in PRIME_WINDOWS:
                continue
            point = Point(
                program=rng.choice(PROGRAMS),
                machine=rng.choice(MACHINES),
                window=window,
                memory_differential=rng.randrange(0, 81, 5),
                memory=MemorySpec(kind=_pick(rng, FRESH_MEMORY)),
            )
            if point not in self._seen:
                self._seen.add(point)
                return {"kind": "point", "spec": point_to_dict(point)}

    def _overlap(self) -> dict:
        while True:
            points = tuple(sorted(
                self._rng.sample(PRIMED, OVERLAP_POINTS),
                key=lambda point: PRIMED.index(point),
            ))
            if points not in self._seen:
                self._seen.add(points)
                sweep = Sweep.grid(zipped={
                    OVERLAP_AXIS: [
                        tuple(getattr(point, name) for name in OVERLAP_AXIS)
                        for point in points
                    ],
                })
                return {"kind": "sweep", "spec": sweep.to_dict()}


def run_job(client: ServiceClient, body: dict) -> dict:
    """Submit, poll and fetch one job; returns its outcome record."""
    outcome = {"retries": 0, "polls": 0, "ok": False}
    started = time.perf_counter()
    while True:
        try:
            job = client.submit(body["kind"], body["spec"])
            break
        except QueueFullError as exc:
            outcome["retries"] += 1
            time.sleep(exc.retry_after or 1.0)
    outcome["submit_s"] = time.perf_counter() - started
    outcome["coalesced"] = bool(job.get("coalesced"))
    while True:
        try:
            doc = client.result(job["id"])
            break
        except ServiceError as exc:
            if exc.status != 202:
                raise
            outcome["polls"] += 1
            time.sleep(POLL_S)
    outcome["latency_s"] = time.perf_counter() - started
    outcome["ok"] = True
    outcome["queue_s"] = doc["started"] - doc["submitted"]
    outcome["run_s"] = doc["finished"] - doc["started"]
    outcome["rows"] = doc["rows"]
    return outcome


def closed_loop(host: str, port: int, next_job, seconds: float = math.inf,
                clients: int = 2) -> tuple[list[dict], float]:
    """Run ``clients`` closed-loop clients on ``next_job`` for ``seconds``.

    ``next_job`` returns ``(kind, body)``, or None when the jobs run
    out. Returns every job's outcome (in completion order) and the wall
    time of the phase, which ends when the last in-flight job finished.
    """
    outcomes: list[dict] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def loop() -> None:
        client = ServiceClient(f"http://{host}:{port}", timeout=60)
        while time.perf_counter() < deadline:
            job = next_job()
            if job is None:
                return
            kind, body = job
            try:
                outcome = run_job(client, body)
            except (ServiceError, OSError, KeyError, ValueError) as exc:
                outcome = {"ok": False, "error": repr(exc), "retries": 0,
                           "polls": 0}
            outcome["kind"] = kind
            outcome["body"] = body
            with lock:
                outcomes.append(outcome)

    started = time.perf_counter()
    threads = [threading.Thread(target=loop, name=f"e2ebench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - started


def measured_phase(host: str, port: int, seed: int,
                   seconds: float) -> tuple[list[dict], float]:
    """Run the seeded stream's clients in a process of their own.

    Returns what :func:`closed_loop` returns. The clients stay out of
    the server's interpreter, as a user's do: their threads would
    otherwise take turns with the service's threads for one interpreter
    lock.
    """
    done = subprocess.run(
        [sys.executable, __file__, "--address", f"{host}:{port}",
         "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=seconds + 120,
    )
    result = json.loads(done.stdout)
    return result["outcomes"], result["wall_s"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run the serve-mixed clients against a running server."
    )
    parser.add_argument("--address", required=True, help="HOST:PORT")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    host, _, port = args.address.rpartition(":")
    outcomes, wall = closed_loop(
        host, int(port), JobStream(args.seed).next, args.seconds
    )
    print(json.dumps({"outcomes": outcomes, "wall_s": wall}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
