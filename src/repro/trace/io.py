"""Trace serialisation: JSON-lines archives of dynamic traces.

The paper's workflow separates trace capture from timing simulation;
persisting traces makes that split concrete -- capture once (slow,
verifies the kernel), replay through any number of machine models later
or on another machine.  The format is one JSON object per line: a header
record followed by one record per dynamic instruction.  This module
writes archives; every archive, internal or external, is read back by
the strict :func:`repro.trace.importer.import_trace`.

Example::

    {"kind": "header", "name": "livermore-05", "entries": 1595, "version": 1}
    {"op": "LOADS", "dest": "S2", "srcs": ["A1", 216], "static": 3}
    {"op": "JAN", "srcs": ["A0"], "target": "loop", "taken": true, "static": 8}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Union

from ..isa import Instruction, Opcode, Operand, Register, parse_register
from .record import Trace, TraceEntry

FORMAT_VERSION = 1

PathOrFile = Union[str, Path, IO[str]]


class TraceFormatError(ValueError):
    """Raised when a trace archive is malformed."""


def _encode_operand(operand: Operand):
    if isinstance(operand, Register):
        return operand.name
    return operand


def _decode_operand(value) -> Operand:
    if isinstance(value, str):
        return parse_register(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceFormatError(f"bad operand in archive: {value!r}")
    return value


def _entry_record(entry: TraceEntry) -> dict:
    instr = entry.instruction
    record = {
        "op": instr.opcode.value,
        "static": entry.static_index,
    }
    if instr.dest is not None:
        record["dest"] = instr.dest.name
    if instr.srcs:
        record["srcs"] = [_encode_operand(s) for s in instr.srcs]
    if instr.target is not None:
        record["target"] = instr.target
    if entry.taken is not None:
        record["taken"] = entry.taken
    if entry.address is not None:
        record["addr"] = entry.address
    if entry.backward is not None:
        record["backward"] = entry.backward
    if entry.vector_length is not None:
        record["vl"] = entry.vector_length
    if instr.comment:
        record["comment"] = instr.comment
    return record


def _entry_from_record(seq: int, record: dict) -> TraceEntry:
    try:
        opcode = Opcode(record["op"])
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"record {seq}: bad opcode") from exc
    dest = parse_register(record["dest"]) if "dest" in record else None
    srcs = tuple(_decode_operand(v) for v in record.get("srcs", ()))
    instr = Instruction(
        opcode,
        dest,
        srcs,
        target=record.get("target"),
        comment=record.get("comment", ""),
    )
    return TraceEntry(
        seq=seq,
        static_index=int(record.get("static", seq)),
        instruction=instr,
        taken=record.get("taken"),
        address=record.get("addr"),
        backward=record.get("backward"),
        vector_length=record.get("vl"),
    )


def write_trace(trace: Trace, destination: PathOrFile) -> None:
    """Write *trace* as a JSON-lines archive."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w") as handle:
            write_trace(trace, handle)
        return
    header = {
        "kind": "header",
        "name": trace.name,
        "entries": len(trace),
        "version": FORMAT_VERSION,
    }
    destination.write(json.dumps(header) + "\n")
    for entry in trace:
        destination.write(json.dumps(_entry_record(entry)) + "\n")
