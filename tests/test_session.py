"""The :class:`repro.Session` facade and :class:`repro.CompileConfig`."""

import json
from types import SimpleNamespace

import pytest

import repro
from repro import CompileConfig, Session, SessionPool
from repro.analysis import AnalysisConfig
from repro.ir import compile_source
from repro.runtime import run_program
from repro.cli import main

SOURCE = """
class P { var v; def init(v) { this.v = v; } }
class C { var f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""


class TestSession:
    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            Session()
        with pytest.raises(ValueError):
            Session(SOURCE, program=compile_source(SOURCE))

    def test_compile_is_cached(self):
        session = Session(SOURCE)
        assert session.compile() is session.compile()

    def test_analyze_is_cached(self):
        session = Session(SOURCE)
        assert session.analyze() is session.analyze()

    def test_optimize_memoizes_per_option_set(self):
        session = Session(SOURCE)
        inline = session.optimize(CompileConfig(inline=True))
        assert session.optimize(CompileConfig(inline=True)) is inline
        assert session.optimize() is inline
        assert session.optimize(CompileConfig(inline=False)) is not inline

    def test_analyze_and_optimize_share_the_fixpoint(self):
        session = Session(SOURCE)
        result = session.analyze()
        report = session.optimize(CompileConfig(inline=True))
        assert report.analysis is result
        assert session.analysis_cache.hits >= 1

    def test_builds_share_the_fixpoint(self):
        session = Session(SOURCE)
        inline = session.optimize(CompileConfig(inline=True))
        manual = session.optimize(CompileConfig(manual_only=True))
        assert manual.analysis is inline.analysis

    def test_program_for_builds(self):
        session = Session(SOURCE)
        assert session.program_for("plain") is session.compile()
        assert session.program_for("inline") is not session.compile()
        with pytest.raises(KeyError):
            session.program_for("bogus")

    def test_run_matches_primitive_api(self):
        from repro.inlining.pipeline import optimize as optimize_ir

        session = Session(SOURCE)
        program = compile_source(SOURCE)
        assert session.run("plain").output == run_program(program).output
        classic = run_program(optimize_ir(program, inline=True).program)
        assert session.run("inline").output == classic.output

    def test_config_threads_through(self):
        config = AnalysisConfig(max_local_passes=29)
        session = Session(SOURCE, config=config)
        assert session.analyze().config is config
        assert session.optimize(CompileConfig(inline=True)).analysis.config is config

    def test_per_call_tracer_override(self):
        from repro.obs import MemorySink, Tracer

        session = Session(SOURCE)
        tracer = Tracer(MemorySink())
        report = session.optimize(CompileConfig(inline=True), tracer=tracer)
        assert "analyze" in tracer.span_totals
        assert "transform" in tracer.span_totals
        # Memoized per config regardless of the tracer used.
        assert session.optimize(CompileConfig(inline=True)) is report
        run = session.run("inline", tracer=tracer)
        assert run.output and tracer.span_totals["run"][0] == 1


class TestCompileConfig:
    def test_frozen_and_hashable(self):
        config = CompileConfig()
        with pytest.raises(AttributeError):
            config.inline = False
        assert hash(config) == hash(CompileConfig())

    def test_content_key_is_canonical(self):
        assert CompileConfig().content_key() == CompileConfig().content_key()
        assert (
            CompileConfig(inline=False).content_key()
            != CompileConfig().content_key()
        )
        # Explicit analysis defaults hash like resolved implicit ones.
        assert (
            CompileConfig().resolved().content_key()
            == CompileConfig(analysis=AnalysisConfig()).content_key()
        )

    def test_content_key_is_stable(self):
        # Recorded before the key's hashing moved into CompileConfig: the
        # service's artifact-store keys must not change.
        assert CompileConfig().content_key() == "0ea9c80fe398f2c8"
        assert CompileConfig().resolved().content_key() == "f1b29119b12802be"
        assert CompileConfig(inline=False).content_key() == "c32ba993c0cffa10"
        assert CompileConfig(inline=True, max_rounds=3).content_key() == "d4a057b1f87286ae"

    def test_for_build(self):
        assert CompileConfig.for_build("noinline").inline is False
        assert CompileConfig.for_build("manual").manual_only is True
        custom = AnalysisConfig(max_local_passes=3)
        assert CompileConfig.for_build("inline", custom).analysis is custom
        with pytest.raises(ValueError):
            CompileConfig.for_build("plain")

    def test_escape_pass_participates_in_the_content_key(self):
        noescape = CompileConfig.for_build("noescape")
        assert noescape.inline is True and noescape.escape_pass is False
        assert noescape.content_key() != CompileConfig(inline=True).content_key()
        assert "escape_pass" in CompileConfig().to_dict()

    def test_session_analysis_config_resolves_into_key(self):
        custom = AnalysisConfig(max_local_passes=29)
        session = Session(SOURCE, config=custom)
        report = session.optimize(CompileConfig())
        assert report.analysis.config is custom


class TestSessionPool:
    def test_repeat_source_reuses_the_session(self):
        pool = SessionPool()
        first = pool.session(SOURCE)
        assert pool.session(SOURCE) is first
        assert (pool.hits, pool.misses) == (1, 1)

    def test_tenants_are_isolated(self):
        pool = SessionPool()
        assert pool.session(SOURCE, tenant="a") is not pool.session(SOURCE, tenant="b")

    def test_lru_bound_evicts(self):
        pool = SessionPool(max_sessions=2)
        a = pool.session("def main() { print(1); }")
        pool.session("def main() { print(2); }")
        pool.session("def main() { print(3); }")
        assert len(pool) == 2
        assert pool.evictions == 1
        assert pool.session("def main() { print(1); }") is not a  # evicted

    def test_tenant_tracer_lanes_merge_on_close(self):
        from repro.obs import MemorySink, Tracer

        tracer = Tracer(MemorySink())
        pool = SessionPool(tracer=tracer)
        pool.session(SOURCE, tenant="ci").optimize()
        pool.session(SOURCE, tenant="dev").optimize()
        assert pool.stats()["tenants"] == 2
        pool.close()
        assert tracer.span_totals.get("analyze", (0,))[0] >= 2

    def test_stats_shape(self):
        stats = SessionPool().stats()
        assert set(stats) == {
            "sessions", "tenants", "max_sessions", "hits", "misses", "evictions",
        }


class TestClassicWrappers:
    def test_top_level_exports(self):
        for name in ("Session", "SessionPool", "CompileConfig", "AnalysisCache",
                     "source_key"):
            assert name in repro.__all__
            assert hasattr(repro, name)
        # The one-shot shims are gone; their primitives live in subpackages.
        for name in ("compile_source", "analyze", "optimize", "run_program"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)

    def test_optimize_takes_only_a_config(self):
        with pytest.raises(TypeError):
            Session(SOURCE).optimize(inline=True)


class TestCLIWideningReport:
    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "prog.icc"
        path.write_text(SOURCE)
        return str(path)

    def test_text_output_reports_widening_counters(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "widened callables: 0" in out
        assert "widened sites: 0" in out

    def test_json_output_reports_widening(self, program_file, capsys):
        assert main(["analyze", program_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["widened_callables"] == 0
        assert payload["analysis"]["widened_sites"] == 0
        assert payload["widening_rejections"] == []

    def test_widening_rejections_warn_on_stderr(self, monkeypatch, program_file, capsys):
        # Force a widening-tainted rejection through the decision engine
        # so the CLI's warning path is exercised end to end.
        from repro.cli import _widening_rejections

        rejected = SimpleNamespace(
            accepted=False,
            reject_reason="container class widened (contour cap)",
            describe=lambda: "C.f",
        )
        accepted = SimpleNamespace(
            accepted=True, reject_reason=None, describe=lambda: "D.g"
        )
        report = SimpleNamespace(
            plan=SimpleNamespace(candidates={"a": rejected, "b": accepted})
        )
        assert _widening_rejections(report) == [rejected]
