"""CLI tests."""

import argparse
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import (
    EXIT_ERROR,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from repro.config import (
    DatasetConfig,
    ExploreConfig,
    RuntimeConfig,
    ServeConfig,
    StreamConfig,
)

KERNEL = """
class Inc extends Accelerator[Int, Int] {
  val id: String = "inc"
  def call(in: Int): Int = in + 1
}
"""

FILTER_KERNEL = """
class Even extends Accelerator[Int, Boolean] {
  val id: String = "even"
  def call(in: Int): Boolean = (in & 1) == 0
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "inc.scala"
    path.write_text(KERNEL)
    return str(path)


def usage_error(capsys, argv) -> str:
    """Run ``argv`` expecting a usage error: exit ``EXIT_USAGE`` (never
    1, never a traceback); returns what reached stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    return capsys.readouterr().err


class TestCompileCommand:
    def test_emits_c(self, kernel_file, capsys):
        assert main(["compile", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "void kernel(int N, int *in_1, int *out_1)" in out
        assert "in_1 + 1" in out

    def test_filter_pattern(self, tmp_path, capsys):
        path = tmp_path / "even.scala"
        path.write_text(FILTER_KERNEL)
        assert main(["compile", str(path), "--pattern", "filter"]) == 0
        assert "(in_1 & 1) == 0" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        err = usage_error(capsys, ["compile", "/nonexistent.scala"])
        assert "s2fa compile: error: no such kernel file" in err

    def test_length_options(self, tmp_path, capsys):
        path = tmp_path / "k.scala"
        path.write_text("""
class K extends Accelerator[Array[Float], Float] {
  val id: String = "k"
  def call(in: Array[Float]): Float = in(0)
}
""")
        assert main(["compile", str(path), "--length", "in=4"]) == 0
        assert "i * 4" in capsys.readouterr().out

    def test_bad_length_syntax(self, kernel_file, capsys):
        for value in ("oops", "in=abc"):
            err = usage_error(
                capsys, ["compile", kernel_file, "--length", value])
            assert ("argument --length: expected NAME=INTEGER, "
                    f"got '{value}'") in err

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.scala"
        path.write_text("class K extends Accelerator[Int, Int] {\n"
                        "  val id: String = \"k\"\n"
                        "  def call(x: Int): Int = unknownCall(x)\n}\n")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert ("error: call to unknown function 'unknownCall' at line 3"
                in capsys.readouterr().err)

    def test_source_without_class_is_an_unknown_app(self, tmp_path,
                                                    capsys):
        # With no ``class`` the text is taken as an app name.
        path = tmp_path / "bad.scala"
        path.write_text("def f(x: Int): Int = unknownCall(x)")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert "error: unknown app 'def f(x: Int)" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["0x", "0xG", "²"])
    def test_malformed_literal_is_a_syntax_error(self, tmp_path, capsys,
                                                 literal):
        path = tmp_path / "bad.scala"
        path.write_text("class K extends Accelerator[Int, Int] {\n"
                        f"  def call(x: Int): Int = x + {literal}\n}}\n")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert "at line 2, column 31" in capsys.readouterr().err


class TestExploreCommand:
    def test_explore_summary(self, kernel_file, capsys):
        code = main(["explore", kernel_file, "--seed", "3",
                     "--time-limit", "60", "--emit-c"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best design" in out
        assert "#pragma" in out or "cycles/batch" in out

    def test_explore_json_export(self, kernel_file, tmp_path, capsys):
        import json

        target = tmp_path / "run.json"
        code = main(["explore", kernel_file, "--seed", "3",
                     "--time-limit", "60", "--json", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["name"] == "s2fa"
        assert data["trace"]
        assert data["best_design"]["cycles"] > 0


class TestInfoCommands:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "KMeans" in out and "S-W" in out

    def test_report(self, capsys):
        assert main(["report", "PR"]) == 0
        out = capsys.readouterr().out
        assert "expert manual design" in out
        assert "memory bound" in out

    def test_report_unknown_app(self, capsys):
        err = usage_error(capsys, ["report", "Nope"])
        assert "s2fa report: error: unknown app 'Nope'; known" in err


class TestRunCommand:
    def test_clean_run_matches_jvm(self, capsys):
        assert main(["run", "KMeans", "--tasks", "24"]) == 0
        out = capsys.readouterr().out
        assert "results match JVM : yes" in out
        assert "accelerated tasks" in out

    def test_faulted_run_still_matches(self, capsys):
        code = main(["run", "KMeans", "--tasks", "24",
                     "--fault-plan",
                     "transient=0.3,hang=0.1,corrupt=0.2,lose_after=5",
                     "--fault-seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results match JVM : yes" in out
        assert "fault plan        : seed=7" in out

    def test_all_lost_degrades_to_jvm(self, capsys):
        code = main(["run", "AES", "--tasks", "16",
                     "--fault-plan", "lose_after=0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results match JVM : yes" in out
        assert "accelerated tasks              | 0" in out

    def test_bad_fault_plan_reported(self, capsys):
        assert main(["run", "KMeans", "--fault-plan", "boom=1"]) \
            == EXIT_ERROR
        assert "unknown fault plan key" in capsys.readouterr().err

    def test_run_unknown_app(self, capsys):
        err = usage_error(capsys, ["run", "Nope"])
        assert "s2fa run: error: unknown app 'Nope'; known" in err


class TestDseCommand:
    def test_dse_end_to_end_with_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "out.json"
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--tasks", "24", "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "best design" in out
        assert "results match JVM : yes" in out
        assert f"trace written to {trace}" in out

        document = json.loads(trace.read_text())
        assert validate_chrome_trace(document) == []
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        for required in ("pipeline.explore", "pipeline.run",
                         "compile.kernel", "dse.run", "dse.batch",
                         "hls.estimate", "blaze.offload"):
            assert required in names, f"missing {required} span"

    def test_dse_metrics_table(self, capsys):
        code = main(["dse", "KNN", "--time-limit", "20",
                     "--tasks", "16", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accelerated tasks" in out

    def test_dse_unknown_app(self, capsys):
        err = usage_error(capsys, ["dse", "Nope"])
        assert "s2fa dse: error: unknown app 'Nope'; known" in err


class TestDeviceFlags:
    def test_run_on_a_named_device(self, capsys):
        code = main(["run", "KMeans", "--tasks", "16",
                     "--device", "xcku060"])
        assert code == 0
        assert "results match JVM : yes" in capsys.readouterr().out

    def test_unknown_device_is_a_typed_error(self, capsys):
        assert main(["run", "KMeans", "--device", "xcnope"]) \
            == EXIT_ERROR
        err = capsys.readouterr().err
        assert "unknown device 'xcnope'" in err
        # The error names every registered board.
        for name in ("xc7k325t", "xcku060", "xcvu9p", "xcvu13p"):
            assert name in err

    def test_explore_on_a_named_device(self, kernel_file, capsys):
        assert main(["explore", kernel_file, "--time-limit", "20",
                     "--device", "xc7k325t"]) == 0
        assert "best design" in capsys.readouterr().out

    def test_dse_device_sweep_selects_cheapest(self, capsys):
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--tasks", "8",
                     "--devices", "xcvu9p,xcku060"])
        assert code == 0
        out = capsys.readouterr().out
        assert "device sweep" in out
        assert "<- cheapest" in out
        assert "selected device   : xcku060 (price 0.45)" in out
        assert "results match JVM : yes" in out

    def test_dse_sweep_finds_the_edge_board_viable(self, capsys):
        # KMeans' *default* design overflows the edge Kintex, but the
        # DSE finds configs that fit — so the cheap board still wins
        # the sweep, which is exactly the cost argument for making the
        # device an exploration dimension.
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--tasks", "8",
                     "--devices", "xc7k325t,xcku060"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected device   : xc7k325t (price 0.25)" in out

    def test_dse_unmeetable_qor_target_is_an_error(self, capsys):
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--devices", "xcku060,xcvu9p",
                     "--qor-target", "0.000001"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "misses target" in captured.out
        assert "no explored device met the QoR target" in captured.err

    def test_dse_unknown_sweep_device(self, capsys):
        assert main(["dse", "kmeans", "--devices",
                     "xcvu9p,xcnope"]) == EXIT_ERROR
        assert "unknown device 'xcnope'" in capsys.readouterr().err


class TestTraceCommands:
    def _record(self, kernel_file, tmp_path, suffix):
        trace = tmp_path / f"trace{suffix}"
        assert main(["explore", kernel_file, "--time-limit", "60",
                     "--trace", str(trace)]) == 0
        return trace

    def test_summarize_chrome_trace(self, kernel_file, tmp_path, capsys):
        trace = self._record(kernel_file, tmp_path, ".json")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage time breakdown" in out
        assert "hls.estimate" in out
        assert "Flamegraph" in out

    def test_summarize_jsonl_trace(self, kernel_file, tmp_path, capsys):
        trace = self._record(kernel_file, tmp_path, ".jsonl")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace),
                     "--top", "3", "--no-flame"]) == 0
        out = capsys.readouterr().out
        assert "Top 3 slowest spans" in out
        assert "Flamegraph" not in out

    def test_summarize_missing_file(self, capsys):
        err = usage_error(capsys,
                          ["trace", "summarize", "/nonexistent.json"])
        assert "s2fa trace summarize: error: no such trace file" in err

    def test_summarize_rejects_invalid_chrome_trace(self, tmp_path,
                                                    capsys):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"traceEvents": [{"ph": "X", "name": "a"}]}))
        # The command line was fine; the file's content is not.
        assert main(["trace", "summarize", str(bad)]) == EXIT_ERROR
        assert "error: invalid Chrome trace" in capsys.readouterr().err

    def test_run_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["run", "AES", "--tasks", "16",
                     "--trace", str(trace)]) == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "trace written to" in out


class TestExitCodes:
    """The CLI's exit codes are a contract with schedulers: 0 success,
    1 result mismatch, 2 usage error, 3 pipeline error, 75 interrupted
    with durable progress, finished by a rerun (EX_TEMPFAIL)."""

    def test_pinned_values(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_ERROR, EXIT_INTERRUPTED) \
            == (0, 2, 3, 75)

    def test_success_is_zero(self, kernel_file):
        assert main(["explore", kernel_file, "--seed", "1",
                     "--time-limit", "40"]) == EXIT_OK

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore"])  # missing required source argument
        assert excinfo.value.code == EXIT_USAGE

    def test_removed_jobs_flag_is_usage_error(self, kernel_file, capsys):
        err = usage_error(capsys, ["explore", kernel_file, "--jobs", "2"])
        assert "unrecognized arguments: --jobs 2" in err

    def test_removed_engine_flag_is_usage_error(self, capsys):
        err = usage_error(capsys, ["run", "KMeans", "--engine", "stack"])
        assert "unrecognized arguments: --engine stack" in err

    @pytest.mark.parametrize("argv, message", [
        (["serve"], "s2fa serve: error: serve needs --socket"),
        (["serve", "--simulate", "--tenant-weight", "a=x"],
         "argument --tenant-weight: expected NAME=INTEGER, got 'a=x'"),
        (["stream", "nope"],
         "s2fa stream: error: unknown streaming app 'nope'")])
    def test_handler_usage_errors_are_two(self, capsys, argv, message):
        assert message in usage_error(capsys, argv)

    def test_pipeline_error_is_three(self, tmp_path, capsys):
        path = tmp_path / "bad.scala"
        path.write_text("def f(x: Int): Int = unknownCall(x)")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_resume_without_checkpoint_dir_is_usage_error(
            self, kernel_file, capsys):
        # An exploration resumes by rerunning over the same --cache-dir,
        # so explore and dse take neither --resume nor --checkpoint-dir.
        for verb in (["explore", kernel_file], ["dse", "KMeans"]):
            for flags in (["--resume"], ["--checkpoint-dir", "ck"]):
                err = usage_error(capsys, verb + flags)
                assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_interrupted_is_75_and_resumable(self, kernel_file,
                                             tmp_path, capsys,
                                             monkeypatch):
        argv = ["explore", kernel_file, "--seed", "3",
                "--time-limit", "60"]
        assert main(argv) == EXIT_OK
        baseline = capsys.readouterr().out

        cache = ["--cache-dir", str(tmp_path / "cache")]
        monkeypatch.setenv("S2FA_CHAOS_KILL", "stop:1")
        code = main(argv + cache)
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "interrupted:" in captured.err
        assert "rerun with the same --cache-dir" in captured.err
        monkeypatch.delenv("S2FA_CHAOS_KILL")
        assert main(argv + cache) == EXIT_OK
        rerun = capsys.readouterr().out

        def science(out):
            return [line for line in out.splitlines()
                    if line.startswith(("HLS evaluations", "best design",
                                        "cycles/batch"))]

        assert science(rerun) == science(baseline) != []


class TestFuzz:
    CORPUS = Path(__file__).resolve().parent / "fuzz_corpus"

    def test_small_clean_campaign(self, capsys):
        assert main(["fuzz", "--iterations", "8", "--seed", "3",
                     "--no-metamorphic"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "8 kernels" in out
        assert "failures          : 0" in out

    def test_replay_only_committed_corpus(self, capsys):
        assert main(["fuzz", "--replay-only",
                     "--corpus", str(self.CORPUS)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "entries replayed" in out
        assert "FAIL" not in out

    def test_replay_only_requires_corpus(self, capsys):
        err = usage_error(capsys, ["fuzz", "--replay-only"])
        assert "s2fa fuzz: error: --replay-only requires --corpus" in err

    def test_failing_campaign_exits_one_and_writes_artifacts(
            self, tmp_path, capsys, monkeypatch):
        import repro.compiler.lift as lift_mod

        orig_step = lift_mod.Lifter._step

        def planted(self, instr, stack, stmts):
            if instr.mnemonic in ("isub", "lsub", "fsub", "dsub") \
                    and len(stack) >= 2:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            return orig_step(self, instr, stack, stmts)

        monkeypatch.setattr(lift_mod.Lifter, "_step", planted)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        code = main(["fuzz", "--iterations", "40", "--seed", "7",
                     "--max-failures", "1", "--no-metamorphic",
                     "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert code == EXIT_FAILURE
        assert "differential compare" in out
        assert "minimized to" in out
        assert any(corpus.glob("crash_*/regression.json"))


# ----------------------------------------------------------------------
# The parser is a view of the config dataclasses: these tests walk it
# and the dataclasses together, so neither can drift from the other.
# ----------------------------------------------------------------------

CONFIGS = (ExploreConfig, DatasetConfig, RuntimeConfig, StreamConfig,
           ServeConfig)

#: Config fields deliberately without a flag, each with the caller that
#: sets it.  A new field must either get a flag (``_flag`` in
#: ``repro.config`` + the verb's ``_add_flags`` list) or be named here
#: with its caller; a value nothing sets is a constant, not a field.
API_ONLY = {
    (RuntimeConfig, "engine"):
        "picks the stack oracle engines in code (no --engine flag); "
        "the e2e bench reads it",
    (StreamConfig, "runtime"):
        "the CLI builds it from the RuntimeConfig flags; "
        "S2FASession.stream passes the session's",
    (ServeConfig, "runtime"):
        "the CLI builds it from the RuntimeConfig flags; "
        "bench_serve_load sets a fault plan",
}

#: argv value -> expected field value, where the field's type alone
#: does not say what a valid value looks like.
SAMPLES = {
    "device": ("xcku060", "xcku060"),
    "fault_plan": ("transient=0.1", "transient=0.1"),
    "tenant_weights": ("alice=3", {"alice": 3}),
    "fleet_devices": ("xcku060, xcvu9p", ("xcku060", "xcvu9p")),
}


def leaf_verbs(parser=None, path=()):
    """``(argv prefix, leaf parser)`` for every verb that runs."""
    parser = parser or cli.build_parser()
    nested = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        yield list(path), parser
        return
    for name, child in nested[0].choices.items():
        yield from leaf_verbs(child, path + (name,))


def config_flags():
    """One case per (leaf verb, config-backed flag)."""
    for path, leaf in leaf_verbs():
        positionals = ["x" for a in leaf._actions if not a.option_strings]
        flags = {a.dest: a for a in leaf._actions if a.option_strings}
        for dest, (owner, name) in leaf.get_default("fields").items():
            yield pytest.param(
                path + positionals, flags[dest], owner, name,
                id=f"{'-'.join(path)}{flags[dest].option_strings[0]}")


class TestParserIsAViewOfTheConfigs:
    def test_thirteen_leaf_verbs_each_print_help(self, capsys):
        verbs = [path for path, _ in leaf_verbs()]
        assert len(verbs) == 13
        for path in verbs:
            with pytest.raises(SystemExit) as excinfo:
                main(path + ["--help"])
            assert excinfo.value.code == EXIT_OK
            assert f"usage: s2fa {' '.join(path)}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, action, owner, name", config_flags())
    def test_flag_lands_in_its_field(self, argv, action, owner, name):
        parser = cli.build_parser()
        default = getattr(owner(), name)
        unset = cli._config(owner, parser.parse_args(argv))
        assert getattr(unset, name) == default

        flag = action.option_strings[0]
        if action.nargs == 0:
            given, expected = [flag], not default
            if name == "resume" and owner is not DatasetConfig:
                given += ["--checkpoint-dir", "ck"]
        else:
            text, expected = SAMPLES.get(name) or {
                int: ("7", 7), float: ("0.25", 0.25),
                None: ("x", "x")}[action.type]
            given = [flag, text]
        assert expected != default
        args = parser.parse_args(argv + given)
        assert getattr(cli._config(owner, args), name) == expected
        if owner is RuntimeConfig:
            # ...and rides along in every config that nests a runtime.
            for outer in (StreamConfig, ServeConfig):
                assert cli._config(outer, args).runtime \
                    == cli._config(RuntimeConfig, args)

    def test_every_field_has_a_flag_or_is_api_only(self):
        reachable = {target for _, leaf in leaf_verbs()
                     for target in leaf.get_default("fields").values()}
        flagged = {(cls, f.name) for cls in CONFIGS
                   for f in dataclasses.fields(cls) if "help" in f.metadata}
        assert reachable == flagged

    def test_api_only_fields_name_their_caller(self):
        unflagged = {(cls, f.name) for cls in CONFIGS
                     for f in dataclasses.fields(cls)
                     if "help" not in f.metadata}
        assert unflagged == set(API_ONLY)
        assert all(API_ONLY.values())

    def test_shown_default_is_the_field_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for name in ("batch_records", "total_records", "data_seed"):
            assert f"(default {getattr(StreamConfig(), name)})" in out

    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
    def test_api_doc_table_matches_the_dataclass(self, cls):
        """``docs/api.md``'s table for ``cls`` names every field with
        ``repr(default)`` (a row may pair two fields: ``a / b``)."""
        doc = (Path(__file__).resolve().parent.parent / "docs"
               / "api.md").read_text()
        table = doc[doc.index(f"\n`{cls.__name__}` ("):]
        table = table[table.index("\n| `"):].split("\n\n")[0]
        documented = {}
        for row in table.strip().splitlines():
            names, defaults = (re.findall(r"`([^`]*)`", cell)
                               for cell in row.split("|")[1:3])
            documented.update(zip(names, defaults, strict=True))

        def shown(field):
            factory = field.default_factory
            if factory is dataclasses.MISSING:
                return repr(field.default)
            return (f"{factory.__name__}()"
                    if dataclasses.is_dataclass(factory)
                    else repr(factory()))
        assert documented == {f.name: shown(f)
                              for f in dataclasses.fields(cls)}

    def test_building_the_parser_imports_no_subsystem(self):
        probe = ("import sys, repro.cli; repro.cli.build_parser(); "
                 "print([m for m in ('repro.serve', 'repro.streaming', "
                 "'repro.dataset', 'repro.fuzz') if m in sys.modules])")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", probe], text=True,
                              capture_output=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.stdout.strip() == "[]"
