"""Tests for the textual assembly parser (round-trip with disassembly)."""

import pytest

from repro.asm import ParseError, ProgramBuilder, parse_program
from repro.asm import parser
from repro.isa import A, InstructionError, Opcode, S
from repro.kernels import ALL_LOOPS, SMALL_SIZES, build_kernel


def programs_equal(a, b) -> bool:
    if len(a) != len(b) or dict(a.labels) != dict(b.labels):
        return False
    for ia, ib in zip(a.instructions, b.instructions):
        if (ia.opcode, ia.dest, ia.srcs, ia.target) != (
            ib.opcode,
            ib.dest,
            ib.srcs,
            ib.target,
        ):
            return False
    return True


class TestBasicParsing:
    def test_simple_listing(self):
        program = parse_program(
            """
            ; program demo (4 instructions)
            AI A0, 3
            loop:
                ASUB A0, A0, 1
                PASS
                JAN A0, loop
            """
        )
        assert program.name == "demo"
        assert len(program) == 4
        assert program.labels == {"loop": 1}
        assert program[3].opcode is Opcode.JAN

    def test_explicit_name_wins(self):
        program = parse_program("PASS", name="mine")
        assert program.name == "mine"

    def test_comments_preserved(self):
        program = parse_program("AI A1, 5 ; the counter")
        assert program[0].comment == "the counter"

    def test_float_and_negative_operands(self):
        program = parse_program(
            """
            SI S1, -2.5
            AI A1, 10
            LOADS S2, A1, -3
            """
        )
        assert program[0].srcs == (-2.5,)
        assert program[2].srcs == (A(1), -3)

    def test_case_insensitive_opcodes_and_registers(self):
        program = parse_program("fadd s1, s2, s3")
        assert program[0].opcode is Opcode.FADD
        assert program[0].dest == S(1)


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(ParseError, match="unknown opcode"):
            parse_program("FROB S1, S2")

    def test_wrong_operand_count(self):
        with pytest.raises(ParseError, match="expects"):
            parse_program("FADD S1, S2")

    def test_bad_operand(self):
        with pytest.raises(ParseError, match="cannot parse operand"):
            parse_program("AI A1, banana")

    def test_bad_register_where_register_needed(self):
        with pytest.raises(ParseError):
            parse_program("FADD 5, S2, S3")

    def test_malformed_label(self):
        with pytest.raises(ParseError, match="malformed label"):
            parse_program("two words:\nPASS")

    def test_semantic_error_reported_with_line(self):
        # JAZ must test A0; operand validation errors carry the line.
        with pytest.raises(ParseError, match="line 1"):
            parse_program("JAZ A1, out\nout:")

    def test_invalid_instruction_is_one_line_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_program("AI A1, 0\nJAZ A1, out\nout:")
        message = str(info.value)
        assert message.startswith("line 2: ")
        assert "\n" not in message
        assert isinstance(info.value.__cause__, InstructionError)

    def test_isa_layer_bug_is_not_a_parse_error(self, monkeypatch):
        bug = RuntimeError("broken validator")

        def broken_instruction(*args, **kwargs):
            raise bug

        monkeypatch.setattr(parser, "Instruction", broken_instruction)
        with pytest.raises(RuntimeError) as info:
            parse_program("AI A1, 0")
        assert info.value is bug

    def test_empty_text(self):
        with pytest.raises(Exception):
            parse_program("   \n ; just a comment\n")


class TestRoundTrip:
    def test_builder_round_trip(self):
        b = ProgramBuilder("rt")
        b.si(S(1), 0.5)
        b.ai(A(1), 0)
        b.ai(A(0), 4)
        b.label("loop")
        b.loads(S(2), A(1), 100)
        b.fadd(S(1), S(1), S(2))
        b.stores(S(1), A(1), 200)
        b.aadd(A(1), A(1), 1)
        b.asub(A(0), A(0), 1)
        b.jan("loop")
        original = b.build()
        parsed = parse_program(original.disassemble())
        assert programs_equal(original, parsed)

    @pytest.mark.parametrize("number", ALL_LOOPS)
    def test_every_kernel_round_trips(self, number):
        original = build_kernel(number, SMALL_SIZES[number]).program
        parsed = parse_program(original.disassemble())
        assert programs_equal(original, parsed)

    def test_round_tripped_kernel_still_verifies(self):
        import dataclasses

        instance = build_kernel(12, 16)
        parsed = parse_program(instance.program.disassemble())
        clone = dataclasses.replace(instance, program=parsed)
        clone.verify()
