"""Lane-list front end to the scalar engine (compatibility shim).

Sweeps once stacked the operating points of one compiled program into
a vectorized stepping loop here. Per-point dispatch through
:func:`~repro.machines.engine.simulate` is faster at every lane count
the paper's artefacts produce, so sweeps no longer come through this
module; it keeps its two public names for callers outside the package
and runs every lane through :func:`simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_LATENCIES, LatencyModel, UnitConfig
from ..memory import MemorySystem
from ..partition.machine_program import MachineProgram, Unit
from .engine import SimulationResult, simulate

__all__ = ["BatchLane", "simulate_batch"]


@dataclass(frozen=True)
class BatchLane:
    """One operating point over a shared program: unit configs plus a
    memory model (a distinct instance per lane)."""

    unit_configs: dict[Unit, UnitConfig]
    memory: MemorySystem


def simulate_batch(
    program: MachineProgram,
    lanes: list[BatchLane],
    latencies: LatencyModel = DEFAULT_LATENCIES,
    collect_issue_times: bool = False,
) -> list[SimulationResult]:
    """One :func:`simulate` result per lane, positionally aligned."""
    return [
        simulate(
            program, lane.unit_configs, lane.memory, latencies,
            collect_issue_times=collect_issue_times,
        )
        for lane in lanes
    ]
