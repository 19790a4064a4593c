"""Differential fuzzer for the three scheduling engines.

Crosses a corpus of generated kernels (``gen:<family>:<seed>`` names)
plus two paper kernels with both machines (DM, SWSM) and every memory
model kind in the hierarchy scenario space, then runs each case
through all three engines — the event-heap scheduler (forced via
``REPRO_EVENT_ENGINE=events``), the SoA cycle loops (``soa``) and the
legacy object engine — and diffs the results field by field. Any divergence is a bug in one of the engines; the
tool prints the first mismatching field per case and exits non-zero.

Usage (CI runs it at tiny scale, mirroring tools/service_smoke.py):

    REPRO_SCALE=tiny PYTHONPATH=src python tools/engine_fuzz.py

    # more seeds, different memory differential:
    python tools/engine_fuzz.py --seeds 8 --md 30
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DecoupledMachine, SuperscalarMachine  # noqa: E402
from repro.api.presets import HIERARCHY_MEMORY_VARIANTS  # noqa: E402
from repro.config import UnitConfig  # noqa: E402
from repro.experiments import active_preset  # noqa: E402
from repro.kernels import build_kernel  # noqa: E402
from repro.machines import simulate, simulate_objects  # noqa: E402
from repro.partition import Unit  # noqa: E402
from repro.workloads import FAMILIES  # noqa: E402

MACHINES = (
    ("dm", DecoupledMachine.compile),
    ("swsm", SuperscalarMachine.compile),
)

#: SimulationResult fields every engine must agree on, bit for bit.
COMPARED_FIELDS = (
    "cycles",
    "instructions",
    "unit_stats",
    "issue_times",
    "esw_peak",
    "esw_mean",
    "buffer_occupancy",
)


def _forced(choice: str, compiled, configs, memory):
    previous = os.environ.get("REPRO_EVENT_ENGINE")
    os.environ["REPRO_EVENT_ENGINE"] = choice
    try:
        return simulate(compiled, configs, memory, collect_issue_times=True)
    finally:
        if previous is None:
            del os.environ["REPRO_EVENT_ENGINE"]
        else:
            os.environ["REPRO_EVENT_ENGINE"] = previous


def diff_fields(reference, candidate) -> list[str]:
    """Names of the result fields on which two engines disagree."""
    mismatches = []
    for field_name in COMPARED_FIELDS:
        if getattr(reference, field_name) != getattr(candidate, field_name):
            mismatches.append(field_name)
    return mismatches


def run_case(program_name: str, scale: int, md: int,
             verbose: bool) -> list[str]:
    """All machines x memory kinds x engines for one program."""
    failures = []
    program = build_kernel(program_name, scale)
    for machine_name, compile_fn in MACHINES:
        compiled = compile_fn(program)
        if machine_name == "dm":
            configs = {
                Unit.AU: UnitConfig(window=32, width=4, name="AU"),
                Unit.DU: UnitConfig(window=32, width=5, name="DU"),
            }
        else:
            configs = {Unit.SINGLE: UnitConfig(window=32, width=9)}
        for label, spec in HIERARCHY_MEMORY_VARIANTS:
            case = f"{program_name} x {machine_name} x {label}"
            events = _forced("events", compiled, configs, spec.build(md))
            soa = _forced("soa", compiled, configs, spec.build(md))
            legacy = simulate_objects(compiled, configs, spec.build(md),
                                      collect_issue_times=True)
            for engine_name, candidate in (("soa", soa), ("objects", legacy)):
                fields = diff_fields(events, candidate)
                if fields:
                    failures.append(
                        f"{case}: events vs {engine_name} differ on "
                        f"{', '.join(fields)}"
                    )
            if verbose and not failures:
                print(f"  ok {case}: {events.cycles} cycles")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2,
                        help="generated seeds per family (default 2)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed value (default 0)")
    parser.add_argument("--md", type=int, default=60,
                        help="memory differential (default 60)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every passing case")
    args = parser.parse_args(argv)

    preset = active_preset()
    corpus = ["flo52q", "mdg"]
    corpus.extend(
        f"gen:{family}:{args.seed_base + i}"
        for family in FAMILIES
        for i in range(args.seeds)
    )

    failures: list[str] = []
    for name in corpus:
        failures.extend(run_case(name, preset.scale, args.md, args.verbose))

    cases = len(corpus) * len(MACHINES) * len(HIERARCHY_MEMORY_VARIANTS)
    if failures:
        print(f"engine fuzz: FAIL — {len(failures)}/{cases} cases diverge")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"engine fuzz: OK — {cases} cases (x3 engines) agree on every "
        f"field (scale={preset.name}, md={args.md})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
