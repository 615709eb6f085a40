"""Property-based tests: serialisation, parsing and vector semantics."""

from __future__ import annotations

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import Memory, ProgramBuilder, parse_program, run
from repro.core import M11BR5, cray_like_machine
from repro.isa import A, S, V
from repro.trace import generate_trace, import_trace, write_trace
from repro.workloads import SyntheticSpec, build_synthetic, synthetic_memory


@st.composite
def synthetic_specs(draw):
    return SyntheticSpec(
        body_ops=draw(st.integers(1, 20)),
        memory_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])),
        chains=draw(st.integers(1, 4)),
        loop_carried=draw(st.booleans()),
        iterations=draw(st.integers(1, 15)),
        seed=draw(st.integers(0, 50)),
    )


def _trace_of(spec):
    return generate_trace(build_synthetic(spec), synthetic_memory(spec))


@settings(max_examples=40, deadline=None)
@given(synthetic_specs())
def test_trace_io_round_trip_preserves_timing(spec):
    trace = _trace_of(spec)
    buffer = io.StringIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    loaded = import_trace(buffer)
    sim = cray_like_machine()
    assert (
        sim.simulate(loaded, M11BR5).cycles
        == sim.simulate(trace, M11BR5).cycles
    )
    assert len(loaded) == len(trace)
    for a, b in zip(trace, loaded):
        assert a.taken == b.taken
        assert a.address == b.address
        assert a.backward == b.backward


@settings(max_examples=40, deadline=None)
@given(synthetic_specs())
def test_parser_round_trip_on_generated_programs(spec):
    program = build_synthetic(spec)
    parsed = parse_program(program.disassemble())
    assert len(parsed) == len(program)
    assert dict(parsed.labels) == dict(program.labels)
    for a, b in zip(program.instructions, parsed.instructions):
        assert (a.opcode, a.dest, a.srcs, a.target) == (
            b.opcode,
            b.dest,
            b.srcs,
            b.target,
        )


@settings(max_examples=40, deadline=None)
@given(synthetic_specs())
def test_parsed_program_executes_identically(spec):
    program = build_synthetic(spec)
    parsed = parse_program(program.disassemble())
    mem_a = synthetic_memory(spec)
    mem_b = synthetic_memory(spec)
    run(program, mem_a)
    run(parsed, mem_b)
    assert mem_a == mem_b


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 64),
    st.lists(st.sampled_from(["add", "sub", "mul", "sadd", "smul"]),
             min_size=1, max_size=8),
    st.integers(0, 1000),
)
def test_vector_semantics_match_numpy(vl, ops, seed):
    """Random chains of vector operations agree with NumPy elementwise."""
    rng = np.random.default_rng(seed)
    data_a = rng.uniform(-2.0, 2.0, 64)
    data_b = rng.uniform(-2.0, 2.0, 64)
    scalar = float(rng.uniform(-2.0, 2.0))

    b = ProgramBuilder("vprop")
    b.si(S(1), scalar)
    b.ai(A(1), 0)
    b.ai(A(2), 64)
    b.ai(A(3), 128)
    b.vsetl(vl)
    b.vload(V(1), A(1), 1)
    b.vload(V(2), A(2), 1)
    expected = data_a[:vl].copy()
    other = data_b[:vl]
    for op in ops:
        if op == "add":
            b.vvadd(V(1), V(1), V(2))
            expected = expected + other
        elif op == "sub":
            b.vvsub(V(1), V(1), V(2))
            expected = expected - other
        elif op == "mul":
            b.vvmul(V(1), V(1), V(2))
            expected = expected * other
        elif op == "sadd":
            b.vsadd(V(1), S(1), V(1))
            expected = scalar + expected
        else:
            b.vsmul(V(1), S(1), V(1))
            expected = scalar * expected
    b.vstore(V(1), A(3), 1)

    memory = Memory(256)
    memory.write_block(0, data_a)
    memory.write_block(64, data_b)
    run(b.build(), memory)
    got = memory.read_block(128, vl)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)
