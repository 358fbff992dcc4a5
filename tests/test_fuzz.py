"""The fuzzing rig end to end: generator, oracle, reducer, seeded bugs.

The acceptance loop this file pins down: a seeded transform bug is (a)
caught by the differential oracle, (b) shrunk by the reducer to a
minimal reproducer, and (c) — for crashing/invalid stages — survived by
the pipeline's stage brackets with output bit-identical to the base
build and a ``stage.degraded`` trace event on the wire.
"""

import json
import os

import pytest

from repro.fuzz import (
    FUZZ_BUILDS,
    CheckResult,
    GenConfig,
    check_program,
    count_nodes,
    generate_source,
    reduce_source,
    run_fuzz,
    seeded_bug,
)
from repro.inlining import pipeline
from repro.ir import format_program
from repro.lang import parse_program
from repro.lang.unparse import unparse_program
from repro.obs.tracer import MemorySink, Tracer
from repro.session import BUILD_CONFIGS, Session

#: A small program with optimization surface (an inlinable chain plus
#: arithmetic for the const-flip bug to corrupt) used where generated
#: programs would be needlessly slow to chase.
SEEDED_SOURCE = """
class P {
    var x;
    def init(x) { this.x = x; }
    def get() { return this.x; }
}
class B {
    var inline p;
    def init(v) { this.p = new P(v); }
    def total() { return this.p.get() + 10; }
}
def helper(n) { return n * 3; }
def main() {
    var b = new B(4);
    var acc = 0;
    for (var i = 0; i < 3; i = i + 1) {
        acc = acc + b.total() + helper(i);
    }
    print(acc);
    print(b.total());
}
"""

#: Every scalar stage changes this program under the ``inline`` build, so
#: a stage that fails after running for real leaves a mutated program
#: for its rollback to undo.
ROLLBACK_SOURCE = """
class P {
    var x;
    def init(x) { this.x = x; }
    def get() { return this.x; }
}
class B {
    var inline p;
    def init(v) { this.p = new P(v); }
    def total() { return this.p.get() + 10; }
}
var keep = nil;
def square(q) { return q.x * q.x; }
def main() {
    var b = new B(4);
    var acc = 0;
    for (var i = 0; i < 3; i = i + 1) {
        acc = acc + b.total();
    }
    var q = new P(acc);
    keep = q;
    print(acc);
    print(square(q));
}
"""

#: (function patched on ``repro.inlining.pipeline``, ``degraded_stages``
#: name), in pipeline order.
SCALAR_STAGES = (
    ("inline_methods", "inline_methods"),
    ("apply_escape_optimization", "escape"),
    ("eliminate_redundant_loads", "loadcse"),
    ("eliminate_dead_code", "dce"),
)


class TestGenerator:
    def test_deterministic(self):
        assert generate_source(11) == generate_source(11)

    def test_seeds_differ(self):
        assert generate_source(1) != generate_source(2)

    def test_generated_programs_parse_and_run(self):
        for seed in range(6):
            source = generate_source(seed)
            session = Session(source, path=f"<gen:{seed}>")
            result = session.run("plain", max_steps=2_000_000)
            assert result.output  # every program prints its accumulators

    def test_config_is_honored(self):
        config = GenConfig(allow_arrays=False, allow_recursion=False)
        for seed in range(6):
            source = generate_source(seed, config)
            assert "array(" not in source


class TestUnparser:
    def test_round_trip_preserves_semantics(self):
        for seed in (0, 3, 5):
            source = generate_source(seed)
            text = unparse_program(parse_program(source))
            original = Session(source).run("plain", max_steps=2_000_000)
            round_tripped = Session(text).run("plain", max_steps=2_000_000)
            assert round_tripped.output == original.output

    def test_unparse_is_a_fixpoint(self):
        source = generate_source(4)
        once = unparse_program(parse_program(source))
        twice = unparse_program(parse_program(once))
        assert once == twice


class TestOracle:
    def test_clean_seeds_report_clean(self):
        report = run_fuzz(seeds=6)
        assert report.ok
        assert report.seeds_run == 6
        assert report.clean + report.skipped == 6

    def test_fuzz_builds_cover_the_matrix(self):
        assert set(FUZZ_BUILDS) == set(BUILD_CONFIGS)

    def test_step_budget_on_base_is_an_explained_skip(self):
        result = check_program(generate_source(0), seed=0, max_steps=10)
        assert isinstance(result, CheckResult)
        assert result.skipped is not None
        assert not result.divergences

    def test_triage_key_normalizes_run_specific_noise(self):
        with seeded_bug("const-flip"):
            a = check_program(generate_source(3), seed=3)
            b = check_program(generate_source(9), seed=9)
        keys_a = {d.triage_key for d in a.divergences}
        keys_b = {d.triage_key for d in b.divergences}
        assert keys_a & keys_b  # one bug, one bucket across seeds


class TestSeededBugs:
    def test_miscompile_is_caught_by_the_oracle(self):
        # (a) of the acceptance loop: valid-IR wrong-output bug — no
        # validator can see it; only differential execution does.
        with seeded_bug("const-flip"):
            result = check_program(SEEDED_SOURCE, seed=0)
        kinds = {d.kind for d in result.divergences}
        assert "output-mismatch" in kinds

    def test_corpus_archives_replayable_reproducers(self, tmp_path):
        corpus = tmp_path / "corpus"
        with seeded_bug("const-flip"):
            report = run_fuzz(seeds=2, corpus_dir=str(corpus))
        assert not report.ok
        assert report.archived >= 1
        archived = [
            os.path.join(root, name)
            for root, _, names in os.walk(corpus)
            for name in names
        ]
        sources = [p for p in archived if p.endswith(".icc")]
        sidecars = [p for p in archived if p.endswith(".json")]
        assert sources and sidecars
        # The archived program replays: it parses and runs standalone.
        with open(sources[0], encoding="utf-8") as handle:
            Session(handle.read()).run("plain", max_steps=2_000_000)
        with open(sidecars[0], encoding="utf-8") as handle:
            meta = json.load(handle)
        assert {"seed", "kind", "build", "triage_key"} <= set(meta)

    def test_reducer_shrinks_to_minimal_reproducer(self):
        # (b) of the acceptance loop: ≤ 25 AST nodes.
        with seeded_bug("const-flip"):
            reduced = reduce_source(SEEDED_SOURCE, "output-mismatch")
            assert count_nodes(parse_program(reduced)) <= 25
            # Still a reproducer after reduction.
            result = check_program(reduced)
            assert any(d.kind == "output-mismatch" for d in result.divergences)

    @pytest.mark.parametrize("bug", ["crash-loadcse", "invalid-dce"])
    def test_stage_rollback_keeps_output_bit_identical(self, bug):
        # (c) of the acceptance loop: a crashing or invalid-IR stage is
        # rolled back, the build completes, and output matches base.
        base = Session(SEEDED_SOURCE).run("plain").output
        sink = MemorySink()
        with seeded_bug(bug):
            session = Session(SEEDED_SOURCE, tracer=Tracer(sink))
            report = session.optimize(BUILD_CONFIGS["inline"])
            output = session.run("inline").output
        assert output == base
        assert report.degraded_stages, "the bracket must record the failure"
        degraded = [e for e in sink.events if e.get("name") == "stage.degraded"]
        assert degraded, "a stage.degraded trace event must be emitted"
        stages = {e["data"]["stage"] for e in degraded}
        expected = "loadcse" if bug == "crash-loadcse" else "dce"
        assert expected in stages

    @pytest.mark.parametrize("failing", [name for name, _stage in SCALAR_STAGES])
    def test_rollback_after_real_mutation_restores_the_stage_input(
        self, monkeypatch, failing
    ):
        # Every stage records its input; the failing one also runs for
        # real, mutating the program, before it raises.  The next stage
        # (or, after dce, the final program) must see exactly the failed
        # stage's input.
        base = Session(ROLLBACK_SOURCE).run("plain").output
        inputs: dict[str, str] = {}
        mutated: list[bool] = []

        def recording(name, original):
            def stage(program, **kwargs):
                inputs[name] = format_program(program)
                stats = original(program, **kwargs)
                if name == failing:
                    mutated.append(format_program(program) != inputs[name])
                    raise RuntimeError(f"injected {name} failure")
                return stats

            return stage

        for name, _stage in SCALAR_STAGES:
            monkeypatch.setattr(pipeline, name, recording(name, getattr(pipeline, name)))
        session = Session(ROLLBACK_SOURCE)
        report = session.optimize(BUILD_CONFIGS["inline"])
        output = session.run("inline").output

        names = [name for name, _stage in SCALAR_STAGES]
        position = names.index(failing)
        assert mutated == [True], "the failing stage must have changed the program"
        assert [d["stage"] for d in report.degraded_stages] == [SCALAR_STAGES[position][1]]
        following = (
            inputs[names[position + 1]]
            if position + 1 < len(names)
            else format_program(report.program)
        )
        assert following == inputs[failing]
        assert output == base

    def test_degraded_build_passes_the_oracle(self):
        # Degradation is invisible to the differential oracle: the build
        # is slower, never wrong.
        with seeded_bug("crash-loadcse"):
            result = check_program(SEEDED_SOURCE, seed=0)
        assert not result.divergences

    def test_unknown_bug_name_rejected(self):
        with pytest.raises(ValueError, match="unknown seeded bug"):
            with seeded_bug("nonsense"):
                pass


#: Reading past the end of an array.  Collapsing any of its expressions
#: to ``0`` or dropping a declaration trips a different runtime error
#: (indexing a non-array, an undeclared variable), so a reducer that
#: matched only the divergence kind would wander off this bug.
OUT_OF_RANGE_SOURCE = """
def main() {
    var a = array(3);
    var i = 5;
    print(a[i]);
}
"""


class TestTriage:
    def test_frontend_error_is_a_frontend_divergence(self):
        result = check_program("def main() { print(facc); }")
        assert [d.kind for d in result.divergences] == ["frontend"]
        assert "undeclared variable 'facc'" in result.divergences[0].detail

    def test_reducer_keeps_the_triage_key(self):
        (key,) = [d.triage_key for d in check_program(OUT_OF_RANGE_SOURCE).divergences]
        assert key.startswith("runtime-error:plain:") and "out of range" in key
        reduced = reduce_source(OUT_OF_RANGE_SOURCE, "runtime-error")
        assert key in [d.triage_key for d in check_program(reduced).divergences]

    def test_reduce_cli_keeps_the_triage_key(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "bug.icc"
        source.write_text(OUT_OF_RANGE_SOURCE)
        reduced = tmp_path / "reduced.icc"
        assert main(["reduce", str(source), "--kind", "runtime-error", "--out", str(reduced)]) == 0
        (key,) = [d.triage_key for d in check_program(OUT_OF_RANGE_SOURCE).divergences]
        assert key in [d.triage_key for d in check_program(reduced.read_text()).divergences]

    def test_reduce_cli_rejects_a_kind_the_input_lacks(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "bug.icc"
        source.write_text(OUT_OF_RANGE_SOURCE)
        assert main(["reduce", str(source), "--kind", "output-mismatch"]) == 1
        assert "no 'output-mismatch' divergence" in capsys.readouterr().err


class TestCountNodes:
    def test_counts_are_positive_and_monotone(self):
        small = parse_program("def main() { print(1); }")
        large = parse_program(SEEDED_SOURCE)
        assert 0 < count_nodes(small) < count_nodes(large)
