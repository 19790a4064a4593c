"""The lane-list shim (:mod:`repro.machines.batch`) and sweep plumbing.

Sweeps run every operating point through per-point ``simulate()``;
the batched engine that once stacked them is retired, and
``simulate_batch`` survives as a shim that runs each lane through the
scalar engine. The suite checks:

* lane-for-lane parity of ``simulate_batch`` against ``simulate`` on
  every declarative memory kind and both machine models, under every
  engine toggle (``REPRO_PERIOD_SKIP`` × ``REPRO_EVENT_ENGINE``), with
  memory models queried exactly as a scalar run queries them;
* the deprecated ``Session(batch=...)`` knob: it warns and changes
  nothing — identical results, cache file names and payload bytes,
  serial and ``jobs=4``;
* the on-disk lowering cache and the threaded disk-cache warm path;
* a Hypothesis property over generated ``gen:<family>:<seed>``
  kernels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DecoupledMachine,
    SuperscalarMachine,
    Unit,
    UnitConfig,
)
from repro.api import MemorySpec, Session, Sweep
from repro.experiments.scales import PRESETS
from repro.kernels import build_kernel
from repro.machines import simulate
from repro.machines.batch import BatchLane, simulate_batch
from repro.memory import (
    CAP_STATELESS,
    FixedLatencyMemory,
    MemorySystem,
)
from repro.workloads.grammar import FAMILIES

TINY = PRESETS["tiny"].scale

MEMORY_SPECS = {
    "fixed": MemorySpec(kind="fixed"),
    "bypass": MemorySpec(kind="bypass", entries=16, line_bytes=32),
    "cache": MemorySpec(kind="cache"),
    "hierarchy": MemorySpec(
        kind="hierarchy", levels=((4096, 32, 2, 1), (65536, 32, 4, 6))
    ),
    "banked": MemorySpec(kind="banked", banks=4, bank_busy=3),
    "prefetch": MemorySpec(kind="prefetch", entries=8, streams=2),
}

def dm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {
        Unit.AU: UnitConfig(window=window, width=4, name="AU"),
        Unit.DU: UnitConfig(window=window, width=5, name="DU"),
    }


def swsm_configs(window: int) -> dict[Unit, UnitConfig]:
    return {Unit.SINGLE: UnitConfig(window=window, width=9)}


_MAKE_CONFIGS = {"dm": dm_configs, "swsm": swsm_configs}
_COMPILED_CACHE: dict[tuple[str, str, int], object] = {}


def compiled_for(name: str, machine: str, scale: int = TINY):
    """Compile once per (kernel, machine); the suite reuses programs."""
    key = (name, machine, scale)
    if key not in _COMPILED_CACHE:
        program = build_kernel(name, scale)
        cls = DecoupledMachine if machine == "dm" else SuperscalarMachine
        _COMPILED_CACHE[key] = cls.compile(program)
    return _COMPILED_CACHE[key]


class AddressHashMemory(MemorySystem):
    """A stateless model every lane must query like a scalar run."""

    def __init__(self, base: int = 40) -> None:
        self.base = base
        self.queries = 0

    def extra_latency(self, addr: int, now: int) -> int:
        self.queries += 1
        return self.base + (addr >> 3) % 7

    def latencies(self, addrs, now):
        self.queries += len(addrs)
        return [self.base + (addr >> 3) % 7 for addr in addrs]

    def capability(self) -> str:
        return CAP_STATELESS

    def reset(self) -> None:
        pass


def assert_lane_parity(compiled, lanes, reference_memories) -> str:
    """Each lane's result equals a fresh scalar run of the same lane."""
    results = simulate_batch(compiled, lanes, collect_issue_times=True)
    assert len(results) == len(lanes)
    for lane, memory, got in zip(lanes, reference_memories, results):
        want = simulate(
            compiled,
            lane.unit_configs,
            memory,
            collect_issue_times=True,
        )
        assert got == want


class TestLaneParity:
    """simulate_batch vs simulate, every memory kind, both machines."""

    @pytest.mark.parametrize("machine", ("dm", "swsm"))
    @pytest.mark.parametrize("kind", sorted(MEMORY_SPECS))
    def test_memory_kind(self, machine, kind):
        spec = MEMORY_SPECS[kind]
        compiled = compiled_for("flo52q", machine)
        make = _MAKE_CONFIGS[machine]
        grid = [(8, 60), (32, 0), (32, 60), (64, 60)]
        lanes = [
            BatchLane(unit_configs=make(window), memory=spec.build(md))
            for window, md in grid
        ]
        refs = [spec.build(md) for _, md in grid]
        assert_lane_parity(compiled, lanes, refs)

    @pytest.mark.parametrize("machine", ("dm", "swsm"))
    def test_stateful_kinds_fall_back_per_lane(self, machine):
        """Stateful memory lanes keep the scalar engine's strategies."""
        compiled = compiled_for("trfd", machine)
        make = _MAKE_CONFIGS[machine]
        spec = MEMORY_SPECS["cache"]
        lanes = [
            BatchLane(unit_configs=make(w), memory=spec.build(60))
            for w in (8, 32)
        ]
        results = simulate_batch(compiled, lanes)
        for lane, got in zip(lanes, results):
            want = simulate(compiled, lane.unit_configs, spec.build(60))
            assert got.cycles == want.cycles
            assert got.telemetry.strategy == want.telemetry.strategy

    @pytest.mark.parametrize("machine", ("dm", "swsm"))
    def test_custom_stateless_model_queried_identically(self, machine):
        """CAP_STATELESS models: query counts match a scalar run."""
        compiled = compiled_for("mdg", machine)
        make = _MAKE_CONFIGS[machine]
        mems = [AddressHashMemory() for _ in range(3)]
        lanes = [
            BatchLane(unit_configs=make(w), memory=m)
            for w, m in zip((4, 16, 128), mems)
        ]
        refs = [AddressHashMemory() for _ in range(3)]
        assert_lane_parity(compiled, lanes, refs)
        for lane_mem, ref_mem in zip(mems, refs):
            assert lane_mem.queries == ref_mem.queries

    @pytest.mark.parametrize("period_skip", ("1", "0"))
    @pytest.mark.parametrize("event_engine", ("0", "1"))
    def test_parity_under_engine_toggles(
        self, monkeypatch, period_skip, event_engine
    ):
        """The toggles change strategy, never the schedule."""
        monkeypatch.setenv("REPRO_PERIOD_SKIP", period_skip)
        monkeypatch.setenv("REPRO_EVENT_ENGINE", event_engine)
        compiled = compiled_for("flo52q", "dm")
        grid = [(8, 60), (64, 0), (64, 60)]
        lanes = [
            BatchLane(
                unit_configs=dm_configs(w), memory=FixedLatencyMemory(md)
            )
            for w, md in grid
        ]
        refs = [FixedLatencyMemory(md) for _, md in grid]
        assert_lane_parity(compiled, lanes, refs)


def sweep_for(machines=("dm", "swsm")) -> Sweep:
    return Sweep.grid(
        program="trfd",
        machine=machines,
        window=(8, 16, 32),
        memory_differential=(0, 60),
    )


def run_session(tmp_path, label, *, batch=None, jobs=1, sweep=None,
                scale=TINY):
    cache = tmp_path / label
    if batch is None:
        session = Session(scale=scale, cache_dir=cache)
    else:
        with pytest.warns(DeprecationWarning, match="batch"):
            session = Session(scale=scale, cache_dir=cache, batch=batch)
    outcome = session.run(sweep or sweep_for(), jobs=jobs)
    return session, outcome, cache


def cache_snapshot(cache_dir) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(cache_dir.glob("*.pkl"))
    }


class TestSessionParity:
    """The deprecated batch knob: same results, cache keys and bytes."""

    def test_serial_batched_matches_per_point(self, tmp_path):
        batched, got, bdir = run_session(tmp_path, "b", batch=True)
        scalar, want, sdir = run_session(tmp_path, "s", batch=False)
        assert got.results == want.results
        assert cache_snapshot(bdir) == cache_snapshot(sdir)
        assert batched.stats == {
            **scalar.stats,
            **{key: batched.stats[key] for key in batched.stats
               if key.endswith("_seconds")},
        }
        assert got.telemetry["strategies"] == want.telemetry["strategies"]

    def test_parallel_batched_matches_per_point(self, tmp_path):
        _, got, bdir = run_session(tmp_path, "b4", batch=True, jobs=4)
        _, want, sdir = run_session(tmp_path, "s1", batch=False)
        assert got.results == want.results
        assert cache_snapshot(bdir) == cache_snapshot(sdir)

    def test_stateful_memory_sweep_unaffected(self, tmp_path):
        sweep = Sweep.grid(
            program="trfd",
            machine=("dm",),
            window=(8, 16),
            memory_differential=(0, 60),
            memory=(MEMORY_SPECS["cache"],),
        )
        _, got, _ = run_session(tmp_path, "b", batch=True, sweep=sweep)
        _, want, _ = run_session(tmp_path, "s", sweep=sweep)
        assert got.results == want.results


class TestLoweringCache:
    """The digest-keyed on-disk lowering cache under ``lowered/``."""

    def test_populated_and_reused(self, tmp_path):
        first, got, cache = run_session(tmp_path, "lc")
        entries = sorted((cache / "lowered").glob("*.pkl"))
        assert entries  # one per (program, machine, partition)
        # A second session must load the lowering instead of
        # recompiling, and still produce identical results.
        second = Session(scale=TINY, cache_dir=cache)
        for path in cache.glob("*.pkl"):
            path.unlink()  # force re-simulation, keep lowerings
        want = second.run(sweep_for())
        assert want.results == got.results

    def test_corrupt_entry_recompiles(self, tmp_path):
        _, got, cache = run_session(tmp_path, "lc")
        for path in (cache / "lowered").glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        for path in cache.glob("*.pkl"):
            path.unlink()
        recovering = Session(scale=TINY, cache_dir=cache)
        want = recovering.run(sweep_for())
        assert want.results == got.results


class TestWarmPath:
    """Threaded disk-cache reads on re-runs."""

    def test_warm_rerun_is_all_disk_hits(self, tmp_path):
        _, got, cache = run_session(tmp_path, "warm")
        warm = Session(scale=TINY, cache_dir=cache)
        outcome = warm.run(sweep_for())
        assert outcome.results == got.results
        assert warm.stats["evaluated"] == 0
        assert warm.stats["disk_hits"] == len(list(sweep_for().points()))
        assert warm.stats["disk_read_seconds"] > 0.0


@settings(max_examples=10, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 500),
    window=st.sampled_from([4, 16, 64]),
    md=st.sampled_from([0, 7, 60]),
)
def test_generated_kernel_lane_parity(family, seed, window, md):
    """Shim vs scalar on arbitrary generated-grammar kernels."""
    compiled = compiled_for(f"gen:{family}:{seed}", "dm", TINY)
    lanes = [
        BatchLane(
            unit_configs=dm_configs(window), memory=FixedLatencyMemory(md)
        ),
        BatchLane(
            unit_configs=dm_configs(2 * window),
            memory=FixedLatencyMemory(md),
        ),
    ]
    refs = [FixedLatencyMemory(md), FixedLatencyMemory(md)]
    assert_lane_parity(compiled, lanes, refs)
