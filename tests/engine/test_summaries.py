"""Codec round-trips: summaries must decode into structurally equal
objects against an isomorphic (freshly re-lowered) program."""

import functools
import json
from dataclasses import replace

import pytest

from repro.config import AnalysisBudget, AnalysisConfig
from repro.engine import summaries
from repro.ipcp.driver import analyze_source, prepare_program
from repro.ipcp.jump_functions import build_forward_jump_functions
from repro.ipcp.resilience import ResilienceReport
from repro.ipcp.return_functions import build_return_functions
from repro.ipcp.substitution import SubstitutionReport
from repro.suite.generator import GeneratorConfig, generate_case
from repro.suite.programs import SUITE_PROGRAM_NAMES, program_source

from tests.conftest import lower

SOURCE = (
    "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 4\n"
    "      CALL S(3, 10)\n      X = F(2)\n      END\n"
    "      SUBROUTINE S(A, B)\n      COMMON /C/ G\n"
    "      A = 2 * B + G\n      END\n"
    "      INTEGER FUNCTION F(N)\n      F = N * N + 1\n      END\n"
)


def built(text=SOURCE):
    program = lower(text)
    config = AnalysisConfig()
    callgraph, modref = prepare_program(program, config)
    return_map = build_return_functions(program, callgraph, modref)
    table = build_forward_jump_functions(
        program, callgraph, config.jump_function, return_map
    )
    return program, callgraph, return_map, table


class TestVarrefs:
    def test_formal_roundtrip(self):
        program, *_ = built()
        s = program.procedure("s")
        ref = summaries.encode_varref(s.formals[1], s)
        assert summaries.resolve_varref(ref, program) is s.formals[1]

    def test_global_roundtrip(self):
        program, *_ = built()
        g = program.scalar_globals()[0]
        ref = summaries.encode_varref(g, program.procedure("s"))
        assert summaries.resolve_varref(ref, program) is g

    def test_result_roundtrip(self):
        program, *_ = built()
        f = program.procedure("f")
        ref = summaries.encode_varref(f.result_var, f)
        assert summaries.resolve_varref(ref, program) is f.result_var

    def test_local_rejected(self):
        program, *_ = built()
        main = program.procedure("main")
        local = main.symbols.lookup("x")
        assert local is not None and not local.is_global
        with pytest.raises(ValueError):
            summaries.encode_varref(local, main)

    def test_roundtrip_across_fresh_lowering(self):
        program, *_ = built()
        s = program.procedure("s")
        ref = summaries.encode_varref(s.formals[0], s)
        other = lower(SOURCE)
        resolved = summaries.resolve_varref(ref, other)
        assert resolved is other.procedure("s").formals[0]
        assert resolved is not s.formals[0]


class TestReturnFunctionCodec:
    def test_roundtrip_structural_equality(self):
        program, _, return_map, _ = built()
        for fn in return_map:
            data = summaries.encode_return_function(fn, program)
            back = summaries.decode_return_function(data, program)
            assert back.procedure_name == fn.procedure_name
            assert back.target is fn.target
            assert back.expr == fn.expr
            assert back.polynomial == fn.polynomial

    def test_roundtrip_is_json_safe(self):
        program, _, return_map, _ = built()
        for fn in return_map:
            data = summaries.encode_return_function(fn, program)
            rehydrated = json.loads(json.dumps(data))
            back = summaries.decode_return_function(rehydrated, program)
            assert back.polynomial == fn.polynomial

    def test_encoding_is_deterministic(self):
        program, _, return_map, _ = built()
        a = lower(SOURCE)
        config = AnalysisConfig()
        cg, mr = prepare_program(a, config)
        other_map = build_return_functions(a, cg, mr)
        ours = sorted(
            str(summaries.encode_return_function(fn, program))
            for fn in return_map
        )
        theirs = sorted(
            str(summaries.encode_return_function(fn, a)) for fn in other_map
        )
        assert ours == theirs


class TestForwardFunctionCodec:
    def test_roundtrip(self):
        program, callgraph, _, table = built()
        for procedure in program:
            for encoded in summaries.encode_forward_functions_of(
                table, procedure, program
            ):
                fn = summaries.decode_forward_function(encoded, program)
                original = table.lookup(fn.call, fn.target)
                assert original is not None
                assert fn.kind == original.kind
                assert fn.constant == original.constant
                assert fn.source_var is original.source_var
                assert fn.polynomial == original.polynomial


class TestConstantsCodec:
    def test_roundtrip(self):
        result = analyze_source(SOURCE)
        payload = summaries.encode_constants(result.constants, result.program)
        back = summaries.decode_constants(payload, result.program)
        assert back.format_report() == result.constants.format_report()
        for procedure in result.program:
            assert back.val_set(procedure.name) == result.constants.val_set(
                procedure.name
            )


class TestSubstitutionCodec:
    def test_roundtrip(self):
        result = analyze_source(SOURCE)
        rebuilt = SubstitutionReport()
        for procedure in result.program:
            data = summaries.encode_substitution_of(
                result.substitution, procedure.name
            )
            summaries.decode_substitution_into(data, procedure, rebuilt)
        assert rebuilt.per_procedure == result.substitution.per_procedure
        assert rebuilt.total == result.substitution.total
        original = result.transformed_source()
        result.substitution = rebuilt
        assert result.transformed_source() == original


# -- decoding into a fresh run -------------------------------------------------
#
# A cache hit decodes summaries written by an earlier run into the
# current run's program, and substitution workers ship their sites back
# to the parent the same way. Each corpus program is analyzed twice:
# payloads encoded against the first run (and passed through JSON, as
# the cache and the pool pipe do) must decode into the second run's
# objects exactly.

GENERATED_SEEDS = (0, 3, 5, 7)
CORPUS = [f"suite-{name}" for name in SUITE_PROGRAM_NAMES] + [
    f"gen-{seed}" for seed in GENERATED_SEEDS
]


def corpus_source(case):
    kind, _, name = case.partition("-")
    if kind == "suite":
        return program_source(name)
    generator = GeneratorConfig(procedures=8, max_statements_per_procedure=10)
    return generate_case(int(name), generator).source


@functools.lru_cache(maxsize=None)
def two_runs(case):
    """Two independent analyses of one corpus program (shared by the
    tests below, which only read them)."""
    text = corpus_source(case)
    return analyze_source(text), analyze_source(text)


def over_the_wire(data):
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("case", CORPUS)
def test_return_functions_decode_into_fresh_run(case):
    first, second = two_runs(case)
    for procedure in second.program:
        theirs = second.return_functions.functions_of(procedure.name)
        encoded = over_the_wire(summaries.encode_return_functions_of(
            first.return_functions, procedure.name, first.program
        ))
        decoded = [
            summaries.decode_return_function(data, second.program)
            for data in encoded
        ]
        assert len(decoded) == len(theirs)
        for back, fn in zip(decoded, theirs):
            assert back.procedure_name == fn.procedure_name
            assert back.target is fn.target
            assert back.expr == fn.expr
            assert back.polynomial == fn.polynomial


@pytest.mark.parametrize("case", CORPUS)
def test_forward_functions_decode_into_fresh_run(case):
    first, second = two_runs(case)
    for procedure in second.program:
        encoded = over_the_wire(summaries.encode_forward_functions_of(
            first.jump_table, first.program.procedure(procedure.name),
            first.program,
        ))
        decoded = [
            summaries.decode_forward_function(data, second.program)
            for data in encoded
        ]
        expected = [
            fn for call in procedure.call_sites()
            for fn in second.jump_table.for_call(call)
        ]
        assert len(decoded) == len(expected)
        for back, fn in zip(decoded, expected):
            assert back.call is fn.call
            assert back.target is fn.target
            assert back.kind == fn.kind
            assert back.constant == fn.constant
            assert back.source_var is fn.source_var
            assert back.polynomial == fn.polynomial


@pytest.mark.parametrize("case", CORPUS)
def test_constants_decode_into_fresh_run(case):
    first, second = two_runs(case)
    encoded = over_the_wire(
        summaries.encode_constants(first.constants, first.program)
    )
    back = summaries.decode_constants(encoded, second.program)
    assert back.format_report() == second.constants.format_report()
    assert summaries.encode_constants(back, second.program) == encoded


@pytest.mark.parametrize("case", CORPUS)
def test_substitution_decode_into_fresh_run(case):
    first, second = two_runs(case)
    rebuilt = SubstitutionReport()
    for procedure in second.program:
        encoded = over_the_wire(summaries.encode_substitution_of(
            first.substitution, procedure.name
        ))
        summaries.decode_substitution_into(encoded, procedure, rebuilt)
    assert rebuilt.per_procedure == second.substitution.per_procedure
    assert replace(second, substitution=rebuilt).transformed_source() == (
        second.transformed_source()
    )


class TestDemotionCodec:
    def test_roundtrip_from_a_mark(self):
        config = replace(AnalysisConfig(), budget=AnalysisBudget.tight())
        generator = GeneratorConfig(
            procedures=10, max_statements_per_procedure=12
        )
        result = analyze_source(generate_case(0, generator).source, config)
        demotions = result.resilience.demotions
        assert len(demotions) >= 2, "tight budget should demote twice"
        mark = 1
        encoded = over_the_wire(
            summaries.encode_demotions(result.resilience, mark)
        )
        rebuilt = ResilienceReport()
        summaries.apply_demotions(encoded, rebuilt)
        assert [
            (d.component, d.site, d.from_kind, d.to_kind, d.reason)
            for d in rebuilt.demotions
        ] == [
            (d.component, d.site, d.from_kind, d.to_kind, d.reason)
            for d in demotions[mark:]
        ]

    def test_apply_without_report_is_a_noop(self):
        summaries.apply_demotions([["c", "s", "a", "b", "r"]], None)


@pytest.mark.parametrize(
    "decode, data",
    [
        ("varref", ["x", "s"]),
        ("varref", ["g", "c", "nosuch"]),
        ("varref", ["r", "s"]),
        ("expr", ["q", 1]),
        ("substitution", {"n": 1, "sites": [["nosuch", 1, ["f", 1, 1], 3]]}),
    ],
    ids=[
        "unknown-varref-tag", "unknown-global", "subroutine-has-no-result",
        "unknown-expr-tag", "unknown-substituted-variable",
    ],
)
def test_malformed_payload_is_a_value_error(decode, data):
    """A payload that does not fit the decoder's program is refused, not
    resolved to some other variable."""
    program, *_ = built()
    with pytest.raises(ValueError):
        if decode == "varref":
            summaries.resolve_varref(data, program)
        elif decode == "expr":
            summaries.decode_expr(data, program)
        else:
            summaries.decode_substitution_into(
                data, program.procedure("s"), SubstitutionReport()
            )
