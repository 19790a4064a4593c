"""One hermetic benchmark process: set up, run one workload, check it.

``run.py`` starts this script in a fresh interpreter for every round
and every set-up probe, with ``src`` on ``PYTHONPATH``, the engine
toggles cleared and a temp directory of its own. It prints one JSON
line: the set-up time, the measured phase's wall time and peak RSS,
the operations attempted and failed by the correctness gate, and
workload details. With ``--trace FILE`` it also records layer spans
over the measured phase and writes them to ``FILE``.

Workloads (see README.md for why each was chosen):

* ``paper-cold``: figures 4-6 and the bypass and hierarchy ablations
  at paper scale, then ``render_text`` and ``write_site``;
* ``corpus-cold``: six seeded kernels of the checked-in corpus (one per
  family), regenerated at paper scale, through the generalization
  study and its summary;
* ``serve-mixed``: an in-process ``repro serve`` under a closed loop of
  two clients running a seeded fresh/overlap/repeat job stream.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

PAPER_SCALE = 40_000
SERVE_SCALE = 12_000
#: Points of an unrecorded corpus seed re-evaluated per-point.
CORPUS_SAMPLE = 2
#: Fetched rows per job kind compared against a direct Session.
SERVE_SAMPLE = 3
#: Paper-cold artefacts: slug -> (emitter kind, program or study).
PAPER_ARTIFACTS = {
    "fig4": ("speedup", "flo52q"),
    "fig5": ("speedup", "mdg"),
    "fig6": ("speedup", "track"),
    "ablation-bypass": ("ablation", "bypass"),
    "ablation-hierarchy": ("ablation", "hierarchy"),
}
#: Latency metrics that repeat the cold round's wall time on the cold
#: workloads, which have no job stream.
ALIASES_OF_WALL_MS = (
    "fresh_job_p50_ms", "fresh_job_p90_ms",
    "overlap_job_p50_ms", "overlap_job_p90_ms",
)
EXPECTED = Path(__file__).with_name("expected.json")
#: The checked-in corpus corpus-cold draws its kernels from.
CORPUS_MANIFEST = (
    Path(__file__).resolve().parents[1] / "corpus" / "default-100.toml"
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Gate:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# -- paper-cold --------------------------------------------------------------------


def setup_cold(tmp: Path):
    """Import the pipeline and open a fresh session and store."""
    from repro.api import Session

    session = Session(
        scale=PAPER_SCALE, cache_dir=tmp / "cache", jobs=1
    )
    session.store(tmp / "store.sqlite")
    return session


def _emit_paper(session, slug: str):
    from repro.experiments import PRESETS
    from repro.report import emit_ablation, emit_speedup

    kind, arg = PAPER_ARTIFACTS[slug]
    if kind == "speedup":
        return emit_speedup(session, PRESETS["paper"], arg, slug=slug)
    return emit_ablation(session, arg, "flo52q")


def paper_cold(session, tmp: Path, seed: int, recorder):
    from repro.experiments import PRESETS
    from repro.report import render_text, write_site

    store = session.store()
    order = list(PAPER_ARTIFACTS)
    random.Random(f"e2ebench:paper-cold:{seed}").shuffle(order)
    produced = {}
    with recorder.root():
        for slug in order:
            with store.track() as group:
                artifact = _emit_paper(session, slug)
            produced[slug] = artifact.with_store_keys(group.keys)
        artifacts = [produced[slug] for slug in PAPER_ARTIFACTS]
        texts = {a.slug: render_text(a) for a in artifacts}
        write_site(artifacts, tmp / "site", PRESETS["paper"], store=store)

    def check(gate: Gate, expected: dict) -> dict:
        digests = {slug: _digest(text) for slug, text in texts.items()}
        digests["manifest.json"] = _digest(
            (tmp / "site" / "manifest.json").read_text()
        )
        for name, digest in digests.items():
            gate.check(
                digest == expected.get(name),
                f"{name}: digest {digest[:12]} != recorded",
            )
        return {"digests": digests}

    return {"order": order}, check


# -- corpus-cold -------------------------------------------------------------------


def corpus_cold(session, tmp: Path, seed: int, recorder):
    from repro.api import Session
    from repro.api.presets import generalization_sweep
    from repro.experiments import PRESETS
    from repro.report import emit_generalization, render_text
    from repro.workloads import (
        Corpus, CorpusEntry, build_generated, characterize, load_manifest,
        verify_corpus,
    )

    population = load_manifest(CORPUS_MANIFEST)
    rng = random.Random(f"e2ebench:corpus-cold:{seed}")
    picked = [
        rng.choice(entries) for entries in population.by_family().values()
    ]

    with recorder.root():
        # Regenerate the picked kernels at paper scale, as
        # generate_corpus does for the kernels it draws.
        entries = []
        for entry in picked:
            program = build_generated(entry.family, entry.seed, PAPER_SCALE)
            profile = characterize(program)
            entries.append(CorpusEntry(
                name=entry.name, family=entry.family, seed=entry.seed,
                digest=program.digest(), instructions=len(program),
                predicted_band=profile.predicted_band,
                lod_rate=round(profile.lod_rate, 4),
                memory_fraction=round(profile.memory_fraction, 4),
            ))
        corpus = Corpus(
            name=f"{population.name}-slice-{seed}", seed=seed,
            scale=PAPER_SCALE, families=population.families,
            entries=tuple(entries),
        )
        study = emit_generalization(session, PRESETS["paper"], corpus)
        summary = render_text(study[0])

    def check(gate: Gate, expected: dict) -> dict:
        problems = verify_corpus(corpus)
        for entry in corpus.entries:
            mine = [p for p in problems if p.startswith(entry.name + ":")]
            gate.check(not mine, "; ".join(mine))
        digest = _digest(summary)
        recorded = expected.get(str(seed))
        if recorded is not None:
            gate.check(digest == recorded, f"summary digest {digest[:12]}")
            return {"summary_digest": digest, "sampled": 0}
        # Unrecorded seed: re-derive a seeded sample of the study's
        # points in fresh per-point sessions.
        points = list(generalization_sweep(
            tuple(entry.name for entry in corpus.entries), 32, 60,
        ).points())
        sample = random.Random(f"e2ebench:corpus-check:{seed}").sample(
            points, CORPUS_SAMPLE
        )
        for point in sample:
            fresh = Session(scale=PAPER_SCALE, batch=False).evaluate(point)
            gate.check(
                fresh == session.evaluate(point),
                f"{point.program}/{point.machine}: per-point result differs",
            )
        return {"summary_digest": digest, "sampled": len(sample)}

    details = {"kernels": [entry.name for entry in corpus.entries]}
    return details, check


# -- serve-mixed -------------------------------------------------------------------


def setup_serve(tmp: Path):
    """Boot the service with its default scale and prime every program."""
    import loadgen
    from repro.report import ResultStore
    from repro.service import ServiceConfig, start_server

    config = ServiceConfig(
        scale=SERVE_SCALE, workers=2, cache_dir=str(tmp / "cache"),
        store_path=str(tmp / "store.sqlite"), port=0,
    )
    # Create the store before the workers open it: two workers opening
    # a new store at once can fail a job, because ResultStore creates
    # its table and stamps the schema version in separate statements
    # and the second opener sees an unversioned table.
    ResultStore(config.store_path).close()
    server, _, thread = start_server(config)
    outcomes, _ = loadgen.closed_loop(
        *server.server_address[:2], loadgen.prime_jobs()
    )
    for outcome in outcomes:
        if not outcome["ok"]:
            stop_serve((server, thread))
            raise RuntimeError(f"priming failed: {outcome.get('error')}")
    return server, thread


def stop_serve(handle) -> None:
    from repro.service import stop_server

    server, thread = handle
    stop_server(server, timeout=30)
    thread.join(timeout=30)


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def serve_mixed(handle, seed: int, recorder, seconds: float, gate: Gate):
    import loadgen

    server, _ = handle
    host, port = server.server_address[:2]
    with recorder.active():
        outcomes, wall = loadgen.measured_phase(host, port, seed, seconds)
    for outcome in outcomes:
        gate.check(outcome["ok"], f"{outcome['kind']} job: "
                                  f"{outcome.get('error')}")
    done = [o for o in outcomes if o["ok"]]
    # Percentiles exclude coalesced jobs: they measure another job.
    own = [o for o in done if not o["coalesced"]]
    by_kind = {
        kind: [o["latency_s"] * 1e3 for o in own if o["kind"] == kind]
        for kind in ("fresh", "overlap")
    }
    queue = [o["queue_s"] * 1e3 for o in own]
    run = [o["run_s"] * 1e3 for o in own]
    details = {
        "jobs": len(outcomes),
        "samples": {
            **{kind: len(v) for kind, v in by_kind.items()},
            "repeat": sum(1 for o in done if o["kind"] == "repeat"),
        },
        "poll_interval_ms": loadgen.POLL_S * 1e3,
        "e2e": {
            "wall_s": wall,
            "jobs_per_s": len(done) / wall,
            "fresh_job_p50_ms": _percentile(by_kind["fresh"], 0.5),
            "fresh_job_p90_ms": _percentile(by_kind["fresh"], 0.9),
            "overlap_job_p50_ms": _percentile(by_kind["overlap"], 0.5),
            "overlap_job_p90_ms": _percentile(by_kind["overlap"], 0.9),
        },
        "service": {
            "service.submit_p50_ms": _percentile(
                [o["submit_s"] * 1e3 for o in outcomes if "submit_s" in o],
                0.5,
            ),
            "service.polls_per_job": (
                sum(o["polls"] for o in outcomes) / len(outcomes)
            ),
            "service.queue_wait_p50_ms": _percentile(queue, 0.5),
            "service.queue_wait_p90_ms": _percentile(queue, 0.9),
            "service.run_p50_ms": _percentile(run, 0.5),
            "service.run_p90_ms": _percentile(run, 0.9),
            "service.coalesced": sum(
                1 for o in outcomes if o.get("coalesced")
            ),
            "service.rejected_503": sum(o["retries"] for o in outcomes),
        },
    }

    def check(gate: Gate, expected: dict) -> dict:
        from repro.api import Session
        from repro.api.spec import point_from_dict
        from repro.config import LatencyModel
        from repro.service import result_rows

        rng = random.Random(f"e2ebench:serve-check:{seed}")
        session = Session(scale=SERVE_SCALE)
        for kind in ("fresh", "overlap"):
            rows = [row for o in own if o["kind"] == kind for row in o["rows"]]
            for row in rng.sample(rows, min(SERVE_SAMPLE, len(rows))):
                point = point_from_dict(row["point"])
                direct = result_rows(
                    [point], [session.evaluate(point)], SERVE_SCALE,
                    LatencyModel(),
                )[0]
                if kind == "overlap":
                    # A copy read from the disk cache carries a minimal
                    # "cached" telemetry record (disk entries are stored
                    # without one); whether a job reads the disk cache
                    # or a worker's memory depends on which worker took
                    # it.
                    direct["telemetry"] = row["telemetry"]
                gate.check(
                    json.dumps(direct, sort_keys=True)
                    == json.dumps(row, sort_keys=True),
                    f"{kind} row {row['key'][:12]} differs from a direct "
                    f"Session",
                )
        return {}

    return details, check


# -- entry point -------------------------------------------------------------------


class _NoRecorder:
    """Stand-in for the span recorder on untraced runs: records nothing."""

    def root(self):
        return nullcontext()

    active = root


def run_cold(args, session, recorder) -> tuple[dict, object]:
    """One cold round.

    A cold workload has no job stream, but every workload reports every
    end-to-end metric: its whole request counts as the one job, so the
    job metrics are aliases of ``wall_s`` (see README.md).
    """
    run = paper_cold if args.workload == "paper-cold" else corpus_cold
    with recorder.active():
        started = time.perf_counter()
        details, check = run(session, args.tmp, args.seed, recorder)
        wall = time.perf_counter() - started
    details["e2e"] = {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "jobs_per_s": 1 / wall,
        **dict.fromkeys(ALIASES_OF_WALL_MS, wall * 1e3),
    }
    details["samples"] = {"fresh": 1, "overlap": 1}
    return details, check


def run_serve(args, handle, recorder, gate: Gate) -> tuple[dict, object]:
    try:
        details, check = serve_mixed(
            handle, args.seed, recorder, args.seconds, gate
        )
    finally:
        stop_serve(handle)
    details["e2e"]["peak_rss_mb"] = _peak_rss_mb()
    return details, check


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "corpus-cold", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.tmp.mkdir(parents=True, exist_ok=True)
    serve = args.workload == "serve-mixed"

    handle = setup_serve(args.tmp) if serve else setup_cold(args.tmp)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        if serve:
            stop_serve(handle)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
    else:
        recorder = _NoRecorder()
    gate = Gate()
    if serve:
        details, check = run_serve(args, handle, recorder, gate)
    else:
        details, check = run_cold(args, handle, recorder)
    if args.trace:
        recorder.write(args.trace)
    expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
    details.update(check(gate, expected))
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        **details,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
