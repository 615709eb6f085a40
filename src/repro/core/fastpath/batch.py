"""The ``batch`` backend: structure-of-arrays sweep evaluation.

The paper's experiments are sweep-shaped: the same trace replayed
across many machine configurations (the four memory/branch variants of
a table, the oracle's machine set, an issue-width sweep).  The
per-spec loops pay the full replay cost per configuration even though
:func:`~repro.core.fastpath.ir.compile_trace` already shares the
decode.  This backend evaluates one :class:`CompiledTrace` through a
whole out-of-order sweep in a single pass: per-spec machine state lives
in parallel integer arrays (one slot per sweep member), and everything
that does not depend on the configuration -- operand/flag unpacking,
the buffer decomposition, the per-buffer hazard analysis -- is computed
once and shared across the sweep.

Grouping: only the out-of-order machine has a sweep kernel here.  Its
members are bucketed by the attributes that shape the shared buffer
decomposition -- issue width and WAR policy.  Flags that only
parameterise the per-spec recurrence (latency tables, branch latency,
bus wiring, result-bus modelling) stay per-spec inside a group, so a
four-config table row is always one group.  Every other family -- the
single-issue scoreboard, the CDC 6600, the in-order window, RUU,
Tomasulo and the speculative machines -- takes the ``python`` backend's
per-spec loop inside the same sweep call, counted as ``fallback_runs``
and sharing the single compiled trace.  A sweep kernel for those
families would share nothing across configs but the decode that
:func:`compile_trace` already shares, and measures no faster than the
per-spec loops (``docs/performance.md`` has the numbers).  The RUU
members also share its register-rename plan
(``python_backend._ruu_plan``, built once per compiled trace and cached
like the out-of-order plan below).

For the out-of-order machine the shared analysis is the big win: the
reference (and the per-spec fast loop) re-derives control and data
hazards between buffer slots on every scan cycle -- an O(slot) walk per
slot per cycle.  Here each buffer is decomposed once into per-slot
dependency bitmasks (``dep_mask``: RAW/WAW/and optionally WAR against
earlier slots; ``branches_before``: earlier branch slots), so each scan
tests two integer ANDs instead of walking the earlier slots, and every
sweep member reuses the same masks.

The state arrays are deliberately plain Python ``int`` lists, not NumPy
vectors: the recurrences are data-dependent (issue decisions feed the
very next comparison), so vectorising across the sweep would have to
speculate and repair -- and at sweep widths of 4-20 the per-op ufunc
dispatch overhead dominates any arithmetic saved.  Bit-identity with
``reference_simulate`` is the contract here exactly as for the
``python`` backend; the differential sweep in
``tests/test_fastpath_batch.py`` and the oracle's ``fastpath-dual``
check enforce it.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ...obs.telemetry import SimTelemetry
from ...obs.telemetry import collecting as telemetry_collecting
from ...trace import Trace
from ..buses import BusKind
from ..result import SimulationResult
from .backends import (
    Backend,
    count_run,
    family_of,
    get_backend,
    register_backend,
)
from .ir import N_REGISTERS, UNITS, _UNKNOWN, compile_trace, window_stats
from .python_backend import _closed_busy

__all__ = ["BatchBackend"]

#: Cap on buffer-drain scan passes, mirroring the per-spec loop's guard.
_MAX_BUFFER_CYCLES = 100_000


def _scalar_only(machine):
    from ..base import scalar_only_error

    raise scalar_only_error(machine.name)


def _result(compiled, machine, config, cycles, detail=None) -> SimulationResult:
    return SimulationResult(
        trace_name=compiled.name,
        simulator=machine.name,
        config=config,
        instructions=compiled.n,
        cycles=cycles,
        detail=detail if detail is not None else {},
    )


# ----------------------------------------------------------------------
# Out-of-order multiple issue (Section 5.2): shared hazard bitmasks
# ----------------------------------------------------------------------

#: Drain-variant tags for out-of-order buffer records (see
#: :func:`_ooo_plan`).
_SINGLE, _INDEP, _NOBRANCH, _GENERAL = 0, 1, 2, 3

#: Cached buffer plans keyed by ``(id(compiled), units, enforce_war)``;
#: the weak reference validates the key and evicts with the compiled
#: trace, mirroring :data:`repro.core.fastpath.ir._CACHE`.
_OOO_PLANS: Dict[Tuple[int, int, bool], Tuple["weakref.ref", list]] = {}


def _ooo_plan(compiled, units: int, enforce_war: bool) -> List[tuple]:
    """Decode every fetch buffer of *compiled* once for an out-of-order
    machine of the given issue width and WAR policy.

    The buffer cut (after the first taken branch) and the intra-buffer
    hazard structure are config-independent, so the plan is shared by
    every sweep member and cached across sweep calls on the same
    compiled trace.  Records are ``(pos, tag, payload, full_mask)``;
    payload is the op tuple for singles, else a tuple of per-slot
    tuples unpacked by the drains in :func:`_sweep_ooo`.
    """
    key = (id(compiled), units, enforce_war)
    hit = _OOO_PLANS.get(key)
    if hit is not None and hit[0]() is compiled:
        return hit[1]

    ops = compiled.ops
    n_entries = compiled.n
    buffers: List[tuple] = []
    pos = 0
    while pos < n_entries:
        end = pos + units
        if end > n_entries:
            end = n_entries
        blen = 0
        for index in range(pos, end):
            blen += 1
            op = ops[index]
            if op[3] and op[4]:
                break
        if blen == 1:
            buffers.append((pos, _SINGLE, ops[pos], 0))
            pos += 1
            continue

        s_unit = [0] * blen
        s_dest = [0] * blen
        s_srcs: List[Tuple[int, ...]] = [()] * blen
        s_isbr = [False] * blen
        any_branch = False
        units_seen = 0
        indep = True
        for slot in range(blen):
            op = ops[pos + slot]
            unit = op[0]
            s_unit[slot] = unit
            s_dest[slot] = op[1]
            s_srcs[slot] = op[2]
            unit_bit = 1 << unit
            if units_seen & unit_bit:
                indep = False
            units_seen |= unit_bit
            if op[3]:
                s_isbr[slot] = True
                any_branch = True

        # Per-slot hazard masks against earlier slots: dep_mask covers
        # RAW/WAW (and WAR when enforced) against *unissued* earlier
        # slots, branches_before the control dependence on earlier
        # branch slots.
        dep_mask = [0] * blen
        branches_before = [0] * blen
        br_slots_before: List[Tuple[int, ...]] = [()] * blen
        for slot in range(1, blen):
            dest = s_dest[slot]
            srcs = s_srcs[slot]
            mask = 0
            bb = 0
            brs: List[int] = []
            for earlier in range(slot):
                if s_isbr[earlier]:
                    bb |= 1 << earlier
                    brs.append(earlier)
                edest = s_dest[earlier]
                if edest >= 0 and (
                    edest in srcs or (dest >= 0 and edest == dest)
                ):
                    mask |= 1 << earlier
                elif dest >= 0 and dest in s_srcs[earlier]:
                    indep = False
                    if enforce_war:
                        mask |= 1 << earlier
            if mask:
                indep = False
            dep_mask[slot] = mask
            branches_before[slot] = bb
            br_slots_before[slot] = tuple(brs)

        full_mask = (1 << blen) - 1
        if any_branch:
            payload = tuple(
                (1 << slot, dep_mask[slot], branches_before[slot],
                 br_slots_before[slot], s_unit[slot], s_dest[slot],
                 s_srcs[slot], s_isbr[slot])
                for slot in range(blen)
            )
            buffers.append((pos, _GENERAL, payload, full_mask))
        else:
            payload = tuple(
                (1 << slot, dep_mask[slot], s_unit[slot], s_dest[slot],
                 s_srcs[slot])
                for slot in range(blen)
            )
            tag = _INDEP if indep else _NOBRANCH
            buffers.append((pos, tag, payload, full_mask))
        pos += blen

    def _evict(_ref: object, _key=key) -> None:
        _OOO_PLANS.pop(_key, None)

    _OOO_PLANS[key] = (weakref.ref(compiled, _evict), buffers)
    return buffers


def _sweep_ooo(compiled, units, enforce_war, group) -> List[SimulationResult]:
    """Shared buffer decomposition + per-buffer hazard bitmasks; the
    per-spec scan tests ``dep_mask & unissued`` / ``branches_before &
    unissued`` instead of walking earlier slots each cycle.

    The sweep runs in two phases.  Phase 1 decodes every fetch buffer
    once -- the buffer cut (after the first taken branch) and the
    intra-buffer hazard structure are config-independent -- and tags
    each with the cheapest drain that reproduces the reference:

    ``single``
        One slot (the tail, and right after a taken branch): no
        intra-buffer hazards, so the issue cycle is a closed-form max
        over operand/unit readiness plus a result-bus probe.
    ``independent``
        No branch, no shared functional unit, and no register shared in
        any direction (WAR overlap disqualifies even when not enforced,
        because a later write still raises an earlier read's floor once
        issued).  With per-slot result buses no slot can observe
        another, so each issues at its own closed-form cycle -- exactly
        where the reference scan lands via progress steps and jumps.
        Specs with a shared bus (1-Bus, crossbar) fall back to the
        branch-free drain.
    ``branch-free`` / ``general``
        The scan drain, with the reference's separate jump-candidate
        pass folded into the issue scan: candidates are only consulted
        when the scan issued nothing, exactly the case where no state
        changed during the scan, so inline candidates equal what a
        second pass over the same state would compute.

    Phase 2 replays the prebuilt buffer records once per sweep member
    with that member's latencies, bus wiring and machine state bound as
    locals for the whole trace.

    Bus reservations are grow-only sets rather than the reference's
    pruned set + heap: every membership probe targets a cycle strictly
    greater than the current one, while every entry pruning would drop
    is less than or equal to it, so stale entries can never satisfy a
    probe and the prune is unobservable.
    """
    K = len(group)
    p_lat: List[List[int]] = []
    p_brlat: List[int] = []
    p_nbus: List[int] = []
    p_xbar: List[bool] = []
    for item in group:
        table = item.config.latencies
        p_lat.append([table.latency(unit) for unit in UNITS])
        p_brlat.append(item.config.branch_latency)
        kind = item.simulator.bus_kind
        p_nbus.append(1 if kind is BusKind.ONE_BUS else units)
        p_xbar.append(kind is BusKind.X_BAR)

    buffers = _ooo_plan(compiled, units, enforce_war)

    telemetry = telemetry_collecting()
    # Buffer occupancy and taken-branch flushes depend only on the
    # taken flags (shared per-trace cache); single-slot buffers always
    # issue alone, so their width-1 contribution is one count, not one
    # dict update per buffer per spec.
    t_occ: Dict[int, int] = {}
    t_flushes = 0
    t_flush_cycles = 0
    t_singles = 0
    if telemetry:
        t_occ, t_flushes, t_flush_cycles = window_stats(compiled, units)
        for _pos, tag, _payload, _fm in buffers:
            if tag == _SINGLE:
                t_singles += 1
    t_details: List[Dict[str, float]] = [{}] * K

    # ------------------------------------------------------------------
    # Phase 2: replay the records once per sweep member.
    # ------------------------------------------------------------------
    n_units = len(UNITS)
    last_events = [0] * K
    tracking = [item.record is not None for item in group]
    issue_at = [
        [0] * compiled.n if tracking[k] else None for k in range(K)
    ]
    complete_at = [
        [0] * compiled.n if tracking[k] else None for k in range(K)
    ]

    for k in range(K):
        latencies = p_lat[k]
        brlat = p_brlat[k]
        nb = p_nbus[k]
        xb = p_xbar[k]
        regs = [0] * N_REGISTERS
        fuf = [0] * n_units
        buses_k = [set() for _ in range(nb)]
        # slot -> result bus, replacing `slot % nb` in the drains (a
        # slot index never exceeds the issue-unit count).
        busmap = buses_k if nb != 1 else buses_k * units
        track = tracking[k]
        issue_k = issue_at[k]
        complete_k = complete_at[k]
        cycle = 0
        last_event = 0
        closed_ok = nb != 1 and not xb
        # Scan passes issue at most `units` slots, so width counts live
        # in a flat list; single-slot buffers are added once at the end.
        t_width = [0] * (units + 1)
        t_cs: List[int] = []
        t_cs_append = t_cs.append

        for pos, tag, payload, full_mask in buffers:
            if tag == _SINGLE:
                unit, dest, srcs, is_branch = payload[:4]
                c = cycle
                for src in srcs:
                    ready = regs[src]
                    if ready > c:
                        c = ready
                if dest >= 0:
                    ready = regs[dest]
                    if ready > c:
                        c = ready
                    ready = fuf[unit]
                    if ready > c:
                        c = ready
                    complete = c + latencies[unit]
                    if xb:
                        chosen = -1
                        for bus_index in range(nb):
                            if complete not in buses_k[bus_index]:
                                chosen = bus_index
                                break
                        if chosen < 0:
                            while all(complete in bus for bus in buses_k):
                                c += 1
                                complete += 1
                            for bus_index in range(nb):
                                if complete not in buses_k[bus_index]:
                                    chosen = bus_index
                                    break
                        reserved = buses_k[chosen]
                    else:
                        reserved = buses_k[0]
                        while complete in reserved:
                            c += 1
                            complete += 1
                    reserved.add(complete)
                    regs[dest] = complete
                else:
                    ready = fuf[unit]
                    if ready > c:
                        c = ready
                    complete = c + latencies[unit]
                fuf[unit] = c + 1
                if is_branch:
                    resolve = c + brlat
                    if resolve > last_event:
                        last_event = resolve
                    cycle = c + 1 if c + 1 > resolve else resolve
                    if track:
                        issue_k[pos] = c
                        complete_k[pos] = resolve
                else:
                    if complete > last_event:
                        last_event = complete
                    cycle = c + 1
                    if track:
                        issue_k[pos] = c
                        complete_k[pos] = complete
                continue

            if tag == _INDEP and closed_ok:
                maxc = cycle
                for slot, (bit, dep, unit, dest, srcs) in enumerate(
                    payload
                ):
                    c = cycle
                    for src in srcs:
                        ready = regs[src]
                        if ready > c:
                            c = ready
                    ready = fuf[unit]
                    if ready > c:
                        c = ready
                    complete = c + latencies[unit]
                    if dest >= 0:
                        ready = regs[dest]
                        if ready > c:
                            c = ready
                            complete = c + latencies[unit]
                        reserved = buses_k[slot]
                        while complete in reserved:
                            c += 1
                            complete += 1
                        reserved.add(complete)
                        regs[dest] = complete
                    fuf[unit] = c + 1
                    if complete > last_event:
                        last_event = complete
                    if c > maxc:
                        maxc = c
                    if telemetry:
                        t_cs_append(c)
                    if track:
                        issue_k[pos + slot] = c
                        complete_k[pos + slot] = complete
                if telemetry:
                    # Slots may share an issue cycle only within this
                    # buffer (the next one starts past ``maxc``), so the
                    # per-buffer multiset gives the per-cycle widths;
                    # pairwise counting over <= `units` entries beats a
                    # per-slot dict by a wide margin.
                    m = len(t_cs)
                    if m == 1:
                        t_width[1] += 1
                    else:
                        counted = 0
                        for i in range(m):
                            if counted >> i & 1:
                                continue
                            ci = t_cs[i]
                            run = 1
                            for j in range(i + 1, m):
                                if t_cs[j] == ci:
                                    run += 1
                                    counted |= 1 << j
                            t_width[run] += 1
                    t_cs.clear()
                cycle = maxc + 1
                continue

            if tag != _GENERAL:
                # Branch-free drain: data hazards + structural conflicts
                # only.
                unissued = full_mask
                guard = 0
                while unissued:
                    guard += 1
                    if guard > _MAX_BUFFER_CYCLES:  # pragma: no cover
                        raise RuntimeError(
                            f"buffer failed to drain at trace pos {pos}"
                        )
                    progressed = False
                    nxt = -1
                    before = unissued
                    for slot, (bit, dep, unit, dest, srcs) in enumerate(
                        payload
                    ):
                        if not unissued & bit:
                            continue
                        # RAW/WAW (and optionally WAR) against unissued
                        # earlier slots; gated slots are bounded by the
                        # gating slot's own candidate.
                        if dep & unissued:
                            continue
                        earliest = cycle
                        for src in srcs:
                            ready = regs[src]
                            if ready > earliest:
                                earliest = ready
                        if dest >= 0:
                            ready = regs[dest]
                            if ready > earliest:
                                earliest = ready
                        ready = fuf[unit]
                        if ready > earliest:
                            earliest = ready
                        latency = latencies[unit]
                        if earliest > cycle:
                            # Not ready: jump candidate (used only when
                            # nothing issues this scan, i.e. when state
                            # did not change under us).
                            cand = earliest
                            if dest >= 0:
                                if xb:
                                    while all(
                                        cand + latency in bus
                                        for bus in buses_k
                                    ):
                                        cand += 1
                                else:
                                    reserved = busmap[slot]
                                    while cand + latency in reserved:
                                        cand += 1
                            if nxt < 0 or cand < nxt:
                                nxt = cand
                            continue
                        complete = cycle + latency
                        if dest >= 0:
                            if xb:
                                chosen = -1
                                for bus_index in range(nb):
                                    if complete not in buses_k[bus_index]:
                                        chosen = bus_index
                                        break
                                if chosen < 0:
                                    cand = cycle + 1
                                    while all(
                                        cand + latency in bus
                                        for bus in buses_k
                                    ):
                                        cand += 1
                                    if nxt < 0 or cand < nxt:
                                        nxt = cand
                                    continue
                                reserved = buses_k[chosen]
                            else:
                                reserved = busmap[slot]
                                if complete in reserved:
                                    cand = cycle + 1
                                    while cand + latency in reserved:
                                        cand += 1
                                    if nxt < 0 or cand < nxt:
                                        nxt = cand
                                    continue
                            regs[dest] = complete
                            reserved.add(complete)
                        # Issue slot at `cycle`.
                        unissued &= ~bit
                        progressed = True
                        fuf[unit] = cycle + 1
                        if complete > last_event:
                            last_event = complete
                        if track:
                            issue_k[pos + slot] = cycle
                            complete_k[pos + slot] = complete
                        if not unissued:
                            break
                    if telemetry:
                        # Scan passes visit strictly increasing cycles,
                        # so the issues of one pass are one cycle's
                        # issue width (issued bits = before ^ unissued,
                        # since unissued only ever loses bits).
                        issued = (before ^ unissued).bit_count()
                        if issued:
                            t_width[issued] += 1
                    if unissued:
                        if progressed:
                            cycle += 1
                        else:
                            cycle = nxt if nxt > cycle else cycle + 1
                # Next buffer starts the cycle after the last issue.
                cycle += 1
                continue

            # General drain: branches gate later slots until resolved.
            unissued = full_mask
            branch_resolve = [_UNKNOWN] * len(payload)
            barrier = 0
            guard = 0
            while unissued:
                guard += 1
                if guard > _MAX_BUFFER_CYCLES:  # pragma: no cover
                    raise RuntimeError(
                        f"buffer failed to drain at trace pos {pos}"
                    )
                progressed = False
                nxt = -1
                before = unissued
                for slot, (
                    bit, dep, bb, brs, unit, dest, srcs, isbr
                ) in enumerate(payload):
                    if not unissued & bit:
                        continue
                    # Gated by an earlier *unissued* slot (branch or
                    # hazard): that slot's own candidate bounds this
                    # one, so it contributes nothing to the jump.
                    if (dep | bb) & unissued:
                        continue
                    # Control: every earlier branch (all issued now)
                    # must also have resolved.
                    control_floor = 0
                    if bb:
                        for b in brs:
                            resolve = branch_resolve[b]
                            if resolve > control_floor:
                                control_floor = resolve
                    earliest = cycle
                    for src in srcs:
                        ready = regs[src]
                        if ready > earliest:
                            earliest = ready
                    if dest >= 0:
                        ready = regs[dest]
                        if ready > earliest:
                            earliest = ready
                    ready = fuf[unit]
                    if ready > earliest:
                        earliest = ready
                    latency = latencies[unit]
                    if earliest > cycle or control_floor > cycle:
                        cand = cycle + 1
                        if control_floor > cand:
                            cand = control_floor
                        if earliest > cand:
                            cand = earliest
                        if dest >= 0:
                            if xb:
                                while all(
                                    cand + latency in bus
                                    for bus in buses_k
                                ):
                                    cand += 1
                            else:
                                reserved = busmap[slot]
                                while cand + latency in reserved:
                                    cand += 1
                        if nxt < 0 or cand < nxt:
                            nxt = cand
                        continue
                    complete = cycle + latency
                    if dest >= 0:
                        if xb:
                            chosen = -1
                            for bus_index in range(nb):
                                if complete not in buses_k[bus_index]:
                                    chosen = bus_index
                                    break
                            if chosen < 0:
                                cand = cycle + 1
                                while all(
                                    cand + latency in bus
                                    for bus in buses_k
                                ):
                                    cand += 1
                                if nxt < 0 or cand < nxt:
                                    nxt = cand
                                continue
                            reserved = buses_k[chosen]
                        else:
                            reserved = busmap[slot]
                            if complete in reserved:
                                cand = cycle + 1
                                while cand + latency in reserved:
                                    cand += 1
                                if nxt < 0 or cand < nxt:
                                    nxt = cand
                                continue
                        regs[dest] = complete
                        reserved.add(complete)
                    # Issue slot at `cycle`.
                    unissued &= ~bit
                    progressed = True
                    fuf[unit] = cycle + 1
                    if isbr:
                        resolve = cycle + brlat
                        branch_resolve[slot] = resolve
                        if resolve > last_event:
                            last_event = resolve
                        if resolve > barrier:
                            barrier = resolve
                        if track:
                            issue_k[pos + slot] = cycle
                            complete_k[pos + slot] = resolve
                    else:
                        if complete > last_event:
                            last_event = complete
                        if track:
                            issue_k[pos + slot] = cycle
                            complete_k[pos + slot] = complete
                    if not unissued:
                        break
                if telemetry:
                    issued = (before ^ unissued).bit_count()
                    if issued:
                        t_width[issued] += 1
                if unissued:
                    if progressed:
                        cycle += 1
                    else:
                        cycle = nxt if nxt > cycle else cycle + 1
            # The next buffer is available the cycle after the last
            # issue, but never before every branch in this buffer has
            # resolved.
            cycle = cycle + 1 if cycle + 1 > barrier else barrier

        last_events[k] = last_event
        if telemetry:
            t_width[1] += t_singles
            t_details[k] = SimTelemetry(
                instructions=compiled.n,
                cycles=max(last_event, 1),
                stall_cycles={},
                fu_busy_cycles=_closed_busy(compiled, latencies, brlat),
                issue_width={w: c for w, c in enumerate(t_width) if c},
                occupancy=t_occ,
                flushes=t_flushes,
                flush_cycles=t_flush_cycles,
            ).to_detail()

    results = []
    for k, item in enumerate(group):
        if tracking[k]:
            item.record.extend(zip(issue_at[k], complete_at[k]))
        results.append(
            _result(compiled, item.simulator, item.config,
                    max(last_events[k], 1), t_details[k])
        )
    return results


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------

class BatchBackend(Backend):
    """Sweep-shaped replay: out-of-order members share the buffer
    analysis; every other member takes its per-spec loop."""

    name = "batch"
    counter_names = ("fast_runs", "sweeps", "fallback_runs")

    def simulate(self, simulator, trace, config, record=None):
        """A single replay has no sweep to amortise over; serve it with
        the per-spec loop (attributed to the ``python`` backend)."""
        return get_backend("python").simulate(simulator, trace, config, record)

    def simulate_sweep(self, trace: Trace, items) -> List[SimulationResult]:
        compiled = compile_trace(trace)
        if compiled.has_vector:
            # Mirror per-item dispatch: the first non-scoreboard machine
            # in item order raises the reference loops' scalar-only error.
            for item in items:
                if family_of(item.simulator) != "scoreboard":
                    _scalar_only(item.simulator)
        count_run("batch", "sweeps")

        # ``ooo`` members group by (issue width, WAR policy); the key
        # ``None`` collects the per-spec members.
        groups: Dict[Optional[Tuple[int, bool]], List[int]] = {}
        for i, item in enumerate(items):
            sim = item.simulator
            key = None
            if family_of(sim) == "ooo":
                key = (sim.issue_units, sim.enforce_war)
            groups.setdefault(key, []).append(i)

        results: List[SimulationResult] = [None] * len(items)  # type: ignore
        for key, indices in groups.items():
            group = [items[i] for i in indices]
            if key is None:
                count_run("batch", "fallback_runs", len(group))
                batch = get_backend("python").simulate_sweep(trace, group)
            else:
                count_run("batch", "fast_runs", len(group))
                batch = _sweep_ooo(compiled, key[0], key[1], group)
            for i, result in zip(indices, batch):
                results[i] = result
        return results


register_backend(BatchBackend())
