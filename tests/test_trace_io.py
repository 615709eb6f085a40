"""Tests for trace serialisation: write_trace archives read back by import_trace."""

import io
import json

import pytest

from repro.core import M11BR5, cray_like_machine
from repro.kernels import build_kernel
from repro.trace import TraceFormatError, import_trace, write_trace

from helpers import fadd, jan, loads, make_trace, si, stores


def round_trip(trace):
    buffer = io.StringIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    return import_trace(buffer)


class TestRoundTrip:
    def test_small_hand_trace(self):
        trace = make_trace(
            [si(1), loads(2, 1), fadd(3, 1, 2), stores(3, 1), jan(False)],
            name="hand",
        )
        loaded = round_trip(trace)
        assert loaded.name == "hand"
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.instruction.opcode == b.instruction.opcode
            assert a.instruction.dest == b.instruction.dest
            assert a.instruction.srcs == b.instruction.srcs
            assert a.instruction.target == b.instruction.target
            assert a.taken == b.taken

    def test_kernel_trace_round_trips_and_times_identically(self):
        trace = build_kernel(12, 16).verify()
        loaded = round_trip(trace)
        sim = cray_like_machine()
        assert (
            sim.simulate(trace, M11BR5).cycles
            == sim.simulate(loaded, M11BR5).cycles
        )

    def test_file_path_interface(self, tmp_path):
        trace = make_trace([si(1), fadd(2, 1, 1)])
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = import_trace(str(path))
        assert len(loaded) == 2

    def test_comments_preserved(self):
        from repro.isa import Instruction, Opcode, S

        instr = Instruction(Opcode.SI, S(1), (1.0,), comment="note")
        trace = make_trace([instr])
        assert round_trip(trace)[0].instruction.comment == "note"


class TestFormatErrors:
    def test_empty_archive(self):
        with pytest.raises(TraceFormatError, match="empty"):
            import_trace(io.StringIO(""))

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            import_trace(io.StringIO('{"op": "PASS"}\n'))

    def test_bad_version(self):
        header = json.dumps({"kind": "header", "name": "x", "version": 99})
        with pytest.raises(TraceFormatError, match="version"):
            import_trace(io.StringIO(header + "\n"))

    def test_malformed_json(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 1}
        )
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            import_trace(io.StringIO(header + "\n{nope\n"))

    def test_bad_opcode(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 1}
        )
        body = json.dumps({"op": "FROB"})
        with pytest.raises(TraceFormatError, match="bad opcode"):
            import_trace(io.StringIO(header + "\n" + body + "\n"))

    def test_entry_count_mismatch(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 5}
        )
        body = json.dumps({"op": "PASS"})
        with pytest.raises(TraceFormatError, match="declares 5"):
            import_trace(io.StringIO(header + "\n" + body + "\n"))

    def test_bad_operand(self):
        header = json.dumps(
            {"kind": "header", "name": "x", "version": 1, "entries": 1}
        )
        body = json.dumps({"op": "AI", "dest": "A1", "srcs": [None]})
        with pytest.raises(TraceFormatError, match="bad operand"):
            import_trace(io.StringIO(header + "\n" + body + "\n"))
