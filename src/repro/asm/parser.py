"""Textual assembly parser: the inverse of :meth:`Program.disassemble`.

The listing format is one instruction per line, with optional label lines
and ``;`` comments::

    ; program saxpy (8 instructions)
    SI S1, 2.5                      ; a
    AI A1, 0
    loop:
        LOADS S2, A1, 16
        FMUL S2, S1, S2
        STORES S2, A1, 144
        AADD A1, A1, 1
        ASUB A0, A0, 1
        JAN A0, loop

Round-trip guarantee: ``parse_program(program.disassemble())`` rebuilds an
equivalent program (same instructions, same labels); this is enforced by
property tests.  The parser exists so kernels and experiments can be
stored, diffed and hand-edited as plain text.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..isa import (
    Instruction, InstructionError, OpKind, Opcode, Operand, parse_register,
)
from .assembler import assemble
from .errors import AssemblerError
from .program import Program


class ParseError(AssemblerError):
    """Raised for malformed assembly text."""

    def __init__(self, line_number: int, line: str, message: str) -> None:
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.line_number = line_number


def parse_program(text: str, name: Optional[str] = None) -> Program:
    """Parse an assembly listing into a :class:`Program`.

    Args:
        text: the listing (see module docstring for the format).
        name: program name; defaults to a ``; program <name>`` header
            comment if present, else ``"parsed"``.
    """
    items: List[Union[Instruction, str]] = []
    inferred_name = None

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        comment = raw.split(";", 1)[1].strip() if ";" in raw else ""
        if not line:
            if comment.startswith("program ") and inferred_name is None:
                inferred_name = comment.split()[1]
            continue
        if line.endswith(":"):
            label = line[:-1].strip()
            if not label or any(ch.isspace() for ch in label):
                raise ParseError(line_number, raw, "malformed label")
            items.append(label)
            continue
        items.append(_parse_instruction(line, comment, line_number, raw))

    if not items:
        raise AssemblerError("no instructions in assembly text")
    return assemble(name or inferred_name or "parsed", items)


def _parse_instruction(
    line: str, comment: str, line_number: int, raw: str
) -> Instruction:
    head, _, rest = line.partition(" ")
    try:
        opcode = Opcode(head.upper())
    except ValueError:
        raise ParseError(line_number, raw, f"unknown opcode {head!r}") from None

    operand_texts = [t.strip() for t in rest.split(",")] if rest.strip() else []
    operand_texts = [t for t in operand_texts if t]

    info = opcode.info
    expected = info.n_srcs
    if opcode.writes_register:
        expected += 1
    if opcode.is_branch:
        expected += 1  # the target label
    if len(operand_texts) != expected:
        raise ParseError(
            line_number,
            raw,
            f"{opcode.value} expects {expected} operand(s), "
            f"got {len(operand_texts)}",
        )

    target: Optional[str] = None
    if opcode.is_branch:
        target = operand_texts.pop()

    dest = None
    if opcode.writes_register:
        dest = _parse_reg_operand(operand_texts.pop(0), line_number, raw)

    srcs = tuple(
        _parse_operand(text, line_number, raw) for text in operand_texts
    )
    try:
        return Instruction(opcode, dest, srcs, target=target, comment=comment)
    except InstructionError as exc:
        raise ParseError(line_number, raw, str(exc)) from exc


def _parse_reg_operand(text: str, line_number: int, raw: str):
    try:
        return parse_register(text)
    except ValueError as exc:
        raise ParseError(line_number, raw, str(exc)) from exc


def _parse_operand(text: str, line_number: int, raw: str) -> Operand:
    try:
        return parse_register(text)
    except ValueError:
        pass
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            line_number, raw, f"cannot parse operand {text!r}"
        ) from None
