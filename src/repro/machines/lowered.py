"""Struct-of-arrays lowering of machine programs for the engine.

:class:`~repro.partition.machine_program.MachineProgram` stores one
dataclass object per instruction — convenient to build, validate and
inspect, but slow to walk millions of times. :func:`lower_program`
flattens a program *once* into parallel integer arrays (the
struct-of-arrays form): timing mode, latency, memory address,
dependency counts, a consumer adjacency table and per-unit gid
streams. The engine (:mod:`repro.machines.engine`) schedules directly
over these arrays; the lowered form is cached on the program
(:meth:`MachineProgram.lowered`), so one compile serves every window
size and memory differential of a sweep.

Lowering also computes two engine accelerator inputs:

* a per-``(mem_base + extra)`` **effective latency table**
  (:meth:`LoweredProgram.addlat_for`), which batches the memory
  system's per-access lookup into one precomputed array when the
  model declares a uniform differential (see
  :meth:`repro.memory.MemorySystem.uniform_extra_latency`); for
  non-uniform models the engine instead combines ``base_addlat``,
  ``memory_gids``/``is_mem`` and the batched
  :meth:`repro.memory.MemorySystem.latencies` protocol;
* the **steady-state signature** (:meth:`LoweredProgram.steady`): if
  the instruction stream is structurally periodic — as every loop-nest
  trace is — the engine can detect a repeating scheduler state and
  skip whole iterations while staying cycle-exact (docs/timing.md,
  "Periodic steady state").

For the event-heap scheduler (docs/timing.md, "Event scheduling")
lowering additionally records *event metadata*: ``mem_units`` — the
units that own memory accesses — drives the engine's strategy
selection (the event heap pays off exactly when a memory-owning unit
faces long, irregular stateful latencies), and the per-gid
``unit_index``/``cons`` tables double as the wakeup-routing tables the
event loop uses to deliver completion and memory-arrival events to the
right unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from array import array

from ..errors import SimulationError
from ..partition.machine_program import MachineProgram, MemKind

__all__ = [
    "MODE_LATENCY",
    "MODE_MEMORY",
    "MODE_ESTABLISH",
    "KIND_MODE",
    "SteadyState",
    "LoweredProgram",
    "lower_program",
]

# Availability rules, precomputed per instruction for the hot loop.
MODE_LATENCY = 0  # avail = issue + latency
MODE_MEMORY = 1  # avail = issue + mem_base + memory.extra_latency(addr)
MODE_ESTABLISH = 2  # avail = issue + 1 (store prefetch: entry established)

KIND_MODE = {
    MemKind.NONE: MODE_LATENCY,
    MemKind.COPY: MODE_LATENCY,
    MemKind.RECEIVE: MODE_LATENCY,
    MemKind.STORE_ADDR: MODE_LATENCY,
    MemKind.STORE_DATA: MODE_LATENCY,
    MemKind.ACCESS_LOAD: MODE_LATENCY,
    MemKind.ACCESS_STORE: MODE_LATENCY,
    MemKind.LOAD_ISSUE: MODE_MEMORY,
    MemKind.SELF_LOAD: MODE_MEMORY,
    MemKind.PREFETCH_LOAD: MODE_MEMORY,
    MemKind.PREFETCH_STORE: MODE_ESTABLISH,
}

#: Kinds whose issue consumes a buffered datum delivered by srcs[0].
CONSUMER_KINDS = frozenset({MemKind.RECEIVE, MemKind.ACCESS_LOAD})

#: Kinds that deliver a datum into the decoupled/prefetch buffer.
DELIVERING_KINDS = frozenset({MemKind.LOAD_ISSUE, MemKind.PREFETCH_LOAD})

#: Boundary stride floor for steady-state checkpoints, in gids. Very
#: short loop bodies are checked at a multiple of their period so the
#: dispatch frontier cannot cross two checkpoints in one cycle.
_MIN_STRIDE = 48

_UNSET = object()


@dataclass(frozen=True)
class SteadyState:
    """A verified structural period of the instruction stream.

    Attributes:
        start: first gid of the verified periodic region; the stream's
            structure repeats with shift ``period`` from here to the
            end of the program.
        period: gid shift per period (a multiple of the minimal
            structural period, raised to at least ``_MIN_STRIDE``).
        unit_counts: per-unit stream advance per period, indexed like
            ``LoweredProgram.units``.
        dep_span: maximum ``consumer - producer`` gid distance in the
            whole program (bounds how far scheduler state can reach
            past the dispatch frontier).
    """

    start: int
    period: int
    unit_counts: tuple[int, ...]
    dep_span: int


class LoweredProgram:
    """Flat parallel arrays describing one machine program.

    All lists are indexed by gid except ``stream_gids`` (per-unit
    dispatch order). Instances are immutable by convention: the engine
    treats every array, including the tables returned by
    :meth:`addlat_for`, as read-only.
    """

    __slots__ = (
        "total",
        "units",
        "stream_gids",
        "n_srcs",
        "src_off",
        "cons",
        "mode",
        "lat",
        "addr",
        "unit_index",
        "orig_index",
        "base_addlat",
        "memory_gids",
        "mem_units",
        "is_mem",
        "min_latency",
        "min_dep_offset",
        "dep_span",
        "pair",
        "delivers",
        "pair_missing",
        "_addlat_cache",
        "_steady",
    )

    def __init__(self) -> None:
        self._addlat_cache: dict[int, list[int]] = {}
        self._steady = _UNSET

    def __getstate__(self):
        """Pickle the flat arrays; drop caches, keep a computed steady.

        ``_steady`` uses a module-level sentinel for "not computed yet"
        that cannot survive a pickle round-trip by identity, so it is
        mapped out of the state (the digest-keyed lowering cache pickles
        programs with ``steady()`` already materialised, which this
        preserves — including a computed ``None``).
        """
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_addlat_cache"
        }
        if state["_steady"] is _UNSET:
            del state["_steady"]
        return state

    def __setstate__(self, state) -> None:
        self.__init__()
        for slot, value in state.items():
            setattr(self, slot, value)

    def addlat_for(self, mem_latency: int) -> list[int]:
        """Effective added latency per gid for a uniform memory model.

        ``mem_latency`` is ``mem_base + uniform_extra``; the table
        folds the three availability modes into a single per-gid add,
        so the hot loop computes ``avail = issue + addlat[gid]`` with
        no branching and no per-access memory-system call. Tables are
        cached per ``mem_latency`` and must not be mutated.
        """
        table = self._addlat_cache.get(mem_latency)
        if table is None:
            table = self.base_addlat.copy()
            for gid in self.memory_gids:
                table[gid] = mem_latency
            self._addlat_cache[mem_latency] = table
        return table

    def single_memory_unit(self) -> bool:
        """Whether every memory access lives on one unit.

        The speculative fixed point replays chunked model queries from
        the recorded access schedule; with a single issuing unit the
        replay's per-cycle chunks provably match the live engine's
        per-unit-per-cycle chunks (true for the DM — all accesses are
        AU work — and trivially for the SWSM). Reads ``mem_units``,
        the memory-owning-units table computed during lowering.
        """
        return len(self.mem_units) <= 1

    def steady(self) -> SteadyState | None:
        """The verified structural period, or None (cached)."""
        state = self._steady
        if state is _UNSET:
            state = self._find_steady()
            self._steady = state
        return state

    def _find_steady(self) -> SteadyState | None:
        total = self.total
        # Forward or self dependencies (malformed programs) break the
        # locality bounds the accelerator relies on.
        if total < 512 or self.min_dep_offset < 1:
            return None
        # Intern the per-gid structural signature: everything the
        # engine reads about an instruction except its address (with a
        # uniform memory model the address never affects timing).
        intern: dict[tuple, int] = {}
        sig = [0] * total
        unit_index = self.unit_index
        mode = self.mode
        lat = self.lat
        src_off = self.src_off
        for gid in range(total):
            key = (unit_index[gid], mode[gid], lat[gid], src_off[gid])
            code = intern.get(key)
            if code is None:
                code = len(intern)
                intern[key] = code
            sig[gid] = code
        buf = array("i", sig).tobytes()
        start = total // 4
        for probe_len in (64, 256, 1024):
            if start + 2 * probe_len >= total:
                break
            probe = buf[4 * start: 4 * (start + probe_len)]
            pos = buf.find(probe, 4 * start + 4)
            while pos != -1 and pos % 4:
                pos = buf.find(probe, pos + (4 - pos % 4))
            if pos == -1:
                continue
            period = pos // 4 - start
            if sig[start: total - period] != sig[start + period: total]:
                continue  # local echo, not a global period; widen probe
            # Extend the verified region backward past the prologue so
            # the engine can start skipping as early as possible.
            while start > 0 and sig[start - 1] == sig[start - 1 + period]:
                start -= 1
            repeats = max(1, -(-_MIN_STRIDE // period))
            stride = period * repeats
            if total - start < 3 * stride + self.dep_span + 64:
                return None
            counts = [0] * len(self.units)
            for gid in range(start, start + stride):
                counts[unit_index[gid]] += 1
            return SteadyState(
                start=start,
                period=stride,
                unit_counts=tuple(counts),
                dep_span=self.dep_span,
            )
        return None


def lower_program(program: MachineProgram) -> LoweredProgram:
    """Flatten ``program`` into its struct-of-arrays form.

    Prefer :meth:`MachineProgram.lowered`, which caches the result on
    the program; this function always builds a fresh instance.
    """
    total = program.num_instructions
    units = program.units
    low = LoweredProgram()
    low.total = total
    low.units = units
    low.n_srcs = [0] * total
    low.src_off = [()] * total
    low.mode = [0] * total
    low.lat = [0] * total
    low.addr = [0] * total
    low.unit_index = [0] * total
    low.orig_index = [-1] * total
    low.pair = [-1] * total
    low.delivers = bytearray(total)
    stream_gids: list[list[int]] = []
    pair_missing: list[tuple[int, str]] = []
    consumers: list[list[int]] = [[] for _ in range(total)]
    seen = bytearray(total)
    min_latency = 1
    min_dep_offset = total or 1
    dep_span = 0
    for ui, unit in enumerate(units):
        gids: list[int] = []
        for inst in program.stream(unit):
            gid = inst.gid
            if not 0 <= gid < total:
                raise SimulationError(
                    f"gid {gid} out of range; lowering must assign "
                    "contiguous gids"
                )
            if seen[gid]:
                raise SimulationError(f"duplicate gid {gid} in streams")
            seen[gid] = 1
            gids.append(gid)
            srcs = inst.srcs
            mode = KIND_MODE[inst.mem_kind]
            low.n_srcs[gid] = len(srcs)
            low.src_off[gid] = tuple(gid - dep for dep in srcs)
            low.mode[gid] = mode
            low.lat[gid] = inst.latency
            low.addr[gid] = inst.addr if inst.addr is not None else 0
            low.unit_index[gid] = ui
            low.orig_index[gid] = inst.orig_index
            if mode == MODE_LATENCY and inst.latency < min_latency:
                min_latency = inst.latency
            for dep in srcs:
                consumers[dep].append(gid)
                offset = gid - dep
                if offset < min_dep_offset:
                    min_dep_offset = offset
                if offset > dep_span:
                    dep_span = offset
            if inst.mem_kind in CONSUMER_KINDS:
                if srcs:
                    low.pair[gid] = srcs[0]
                else:
                    pair_missing.append((gid, inst.mem_kind.value))
            if inst.mem_kind in DELIVERING_KINDS:
                low.delivers[gid] = 1
        stream_gids.append(gids)
    low.stream_gids = stream_gids
    low.cons = [tuple(c) for c in consumers]
    low.base_addlat = [
        1 if m == MODE_ESTABLISH else v for m, v in zip(low.mode, low.lat)
    ]
    low.memory_gids = [g for g in range(total) if low.mode[g] == MODE_MEMORY]
    low.mem_units = tuple(
        sorted({low.unit_index[g] for g in low.memory_gids})
    )
    low.is_mem = bytearray(total)
    for g in low.memory_gids:
        low.is_mem[g] = 1
    low.min_latency = min_latency
    low.min_dep_offset = min_dep_offset
    low.dep_span = dep_span
    low.pair_missing = tuple(pair_missing)
    return low
