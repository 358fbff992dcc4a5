"""CLI driver tests."""

import json

import pytest

from repro.cli import main

PROGRAM = """
class P { var v; def init(v) { this.v = v; } }
class C { var f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.icc"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_plain_run(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_inline_run_same_output(self, program_file, capsys):
        assert main(["run", program_file, "--inline"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_noinline_run(self, program_file, capsys):
        assert main(["run", program_file, "--noinline"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_manual_run(self, program_file, capsys):
        assert main(["run", program_file, "--manual"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_stats_flag(self, program_file, capsys):
        assert main(["run", program_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "cycles" in err

    def test_conflicting_flags_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--inline", "--manual"])


class TestAnalyze:
    def test_analyze_reports_candidates(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "C.f" in out
        assert "ACCEPT" in out
        assert "method contours" in out


class TestIRAndCodegen:
    def test_ir_dump(self, program_file, capsys):
        assert main(["ir", program_file]) == 0
        out = capsys.readouterr().out
        assert "main" in out and "new C" in out

    def test_ir_dump_optimized_shows_variant(self, program_file, capsys):
        assert main(["ir", program_file, "--inline"]) == 0
        assert "C$1" in capsys.readouterr().out

    def test_codegen(self, program_file, capsys):
        assert main(["codegen", program_file]) == 0
        captured = capsys.readouterr()
        assert "struct C" in captured.out
        assert "bytes" in captured.err


class TestGracefulNoData:
    """`repro trace` / `repro heatmap` degrade to messages, not tracebacks."""

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no trace data" in out
        assert "record with --trace" in out

    def test_heatmap_missing_file(self, tmp_path, capsys):
        assert main(["heatmap", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_heatmap_trace_without_locality(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["run", program_file, "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["heatmap", trace]) == 0
        assert "no locality data" in capsys.readouterr().out

    def test_heatmap_diff_missing_second_file(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["run", program_file, "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["heatmap", trace, str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err


class TestProgramErrors:
    """A bad program prints one `error:` line with its location, not a
    traceback; an internal compiler error still raises."""

    @pytest.fixture()
    def write(self, tmp_path):
        def write(source):
            path = tmp_path / "bad.icc"
            path.write_text(source)
            return str(path)

        return write

    @pytest.mark.parametrize("command", ["run", "analyze", "ir", "codegen"])
    def test_missing_program_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "absent.icc")
        assert main([command, missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "analyze", "ir", "codegen"])
    def test_front_end_error(self, command, write, capsys):
        path = write("def main() { print(x); }")
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:1:20: undeclared variable 'x'\n"

    def test_vm_error_closes_the_trace(self, write, tmp_path, capsys):
        path = write("def main() { print(1 / 0); }")
        trace = tmp_path / "t.jsonl"
        assert main(["run", path, "--inline", "--trace", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1:22: division by zero\n"
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(event.get("ev") == "span_end" for event in events)

    def test_internal_compiler_error_still_raises(self, program_file, monkeypatch):
        from repro.ir.validate import ValidationError

        def broken(self, *args, **kwargs):
            raise ValidationError("bad IR")

        monkeypatch.setattr("repro.cli.Session.optimize", broken)
        with pytest.raises(ValidationError):
            main(["analyze", program_file])
