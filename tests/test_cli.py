"""Tests for the command-line interface (parser wiring + light commands)."""

import json
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.api import ReproConfig
from repro.cli import _build_config, build_parser, main

ROOT = Path(__file__).resolve().parent.parent

#: ``repro <sub> ...`` / ``python -m repro.cli <sub> ...`` opening a
#: command line (after an optional ``run:`` key, ``$`` prompt or
#: ``VAR=value`` prefixes).
_COMMAND_LINE = re.compile(
    r"^\s*(?:-\s+)?(?:run:\s*)?(?:\$\s+)?(?:\w+=\S+\s+)*"
    r"(?:python3?\s+-m\s+repro\.cli|repro)\s+(?P<argv>[a-z].*)")
#: The same, opening an inline markdown code span.
_COMMAND_SPAN = re.compile(r"`repro\s+(?P<argv>[a-z][^`]*)")


def documented_commands():
    """(source, argv text) for every CLI invocation the docs show:
    command lines of fenced blocks, workflow steps and the module
    docstring, plus inline code spans of the markdown files."""
    sources = {name: (ROOT / name).read_text(encoding="utf-8")
               for name in ("README.md", ".github/workflows/ci.yml",
                            ".claude/skills/verify/SKILL.md")}
    sources["src/repro/cli.py docstring"] = repro.cli.__doc__
    found = []
    for name, text in sources.items():
        markdown = name.endswith(".md")
        fenced = False
        for line in text.replace("\\\n", " ").splitlines():
            if markdown and line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            pattern = _COMMAND_LINE if fenced or not markdown \
                else _COMMAND_SPAN
            for match in pattern.finditer(line):
                # Keep the command itself: drop trailing comments, pipes
                # and chained commands.
                argv = re.split(r"\s+#|\s+[|>&]", match["argv"])[0]
                found.append((name, argv.strip()))
    return found


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.shift == "weak"
        assert args.initial == "Stealing"
        assert args.seed is None  # the config's seed applies
        assert _build_config(args).experiment.seed == 7

    def test_fig5_strong(self):
        args = build_parser().parse_args(["fig5", "--shift", "strong"])
        assert args.shift == "strong"

    def test_fig5_rejects_bad_shift(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--shift", "sideways"])

    def test_fig6_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.tracked == "sneaky"
        assert args.target == "firearm"

    def test_table1_alternations(self):
        args = build_parser().parse_args(["table1", "--alternations", "2"])
        assert args.alternations == 2

    def test_multimission_missions(self):
        args = build_parser().parse_args(
            ["multimission", "--missions", "Arson", "Abuse"])
        assert args.missions == ["Arson", "Abuse"]

    def test_kg_defaults(self):
        args = build_parser().parse_args(["kg"])
        assert args.mission == "Stealing"
        assert args.depth is None  # the config's kg_depth applies
        assert _build_config(args).experiment.kg_depth == 3

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.streams == 4
        assert args.missions == ["Stealing"]
        assert args.rounds is None
        assert not args.adaptive
        assert not hasattr(args, "sequential")  # one scoring path

    def test_fleet_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--streams", "8", "--missions", "Stealing", "Robbery",
             "--adaptive", "--rounds", "5",
             "--save", "fleet.json"])
        assert args.streams == 8
        assert args.missions == ["Stealing", "Robbery"]
        assert args.adaptive
        assert args.rounds == 5
        assert args.save == "fleet.json"

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--version"])
        assert exit_info.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway"])
        assert args.streams == 4
        assert args.host == "127.0.0.1"
        assert args.port == 7641
        assert args.max_queue_depth == 8
        assert not args.adaptive

    def test_gateway_flags(self):
        args = build_parser().parse_args(
            ["gateway", "--streams", "8", "--port", "0", "--host", "0.0.0.0",
             "--max-queue-depth", "2", "--adaptive"])
        assert args.streams == 8
        assert args.port == 0
        assert args.host == "0.0.0.0"
        assert args.max_queue_depth == 2
        assert args.adaptive


class TestDocumentedCommands:
    """Every ``repro <sub> ...`` line the README, CI workflow, verify
    skill and module docstring show names a registered subcommand and
    only flags that subcommand defines."""

    def test_docs_are_scanned(self):
        sources = {source for source, _ in documented_commands()}
        assert len(sources) == 4, sources

    @pytest.mark.parametrize("source,argv", documented_commands())
    def test_documented_command_parses(self, source, argv):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action.choices, dict))
        tokens = shlex.split(argv)
        assert tokens[0] in subparsers.choices, \
            f"{source}: 'repro {argv}' names no registered subcommand"
        known = subparsers.choices[tokens[0]]._option_string_actions
        for token in tokens[1:]:
            if token.startswith("-"):
                assert token.partition("=")[0] in known, \
                    f"{source}: 'repro {argv}' uses unknown flag {token}"


class TestKGCommand:
    def test_kg_command_runs(self, capsys):
        assert main(["kg", "--mission", "Explosion", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "L1" in out and "<sensor>" in out
        assert "reasoning paths" in out

    def test_kg_command_seed_changes_output(self, capsys):
        main(["kg", "--mission", "Arson", "--seed", "1"])
        first = capsys.readouterr().out
        main(["kg", "--mission", "Arson", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestServeCommand:
    def test_trace_dir_holds_one_engine_round_per_step(self, tmp_path):
        from repro.obs import load_jsonl
        out = tmp_path / "traces"
        assert main(["serve", "--mission", "Stealing", "--steps-before",
                     "1", "--steps-after", "2", "--trace-dir", str(out),
                     "--set", "experiment.train_steps=2",
                     "--set", "experiment.dataset_scale=0.1",
                     "--set", "experiment.frames_per_video=24"]) == 0
        spans = load_jsonl(out / "trace.jsonl")
        assert [(span["name"], span["parent_id"], span["attrs"])
                for span in spans] == [
            ("engine.round", None, {"round": step, "streams": 1,
                                    "pull": True})
            for step in (1, 2, 3)]


class TestConfigPrecedence:
    """The config file, then each dedicated flag that was given, then
    ``--set``: a flag typed with its old default still applies."""

    @pytest.fixture()
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        ReproConfig().apply_overrides([
            "experiment.kg_depth=2", "experiment.seed=5",
            "experiment.train_steps=9"]).save(path)
        return str(path)

    def test_given_flags_win_over_the_file(self, config_file):
        exp = _build_config(build_parser().parse_args(
            ["kg", "--config", config_file, "--depth", "3", "--seed", "7"])
        ).experiment
        assert (exp.kg_depth, exp.seed) == (3, 7)
        exp = _build_config(build_parser().parse_args(
            ["fig5", "--config", config_file, "--train-steps", "400"])
        ).experiment
        assert (exp.train_steps, exp.seed) == (400, 5)

    def test_absent_flags_leave_the_file(self, config_file):
        exp = _build_config(build_parser().parse_args(
            ["kg", "--config", config_file])).experiment
        assert (exp.kg_depth, exp.seed, exp.train_steps) == (2, 5, 9)

    def test_set_applies_after_the_flags(self):
        exp = _build_config(build_parser().parse_args(
            ["kg", "--seed", "7", "--set", "experiment.seed=9"])).experiment
        assert exp.seed == 9

    def test_kg_depth_flag_over_the_file_prints_the_flag_kg(
            self, config_file, capsys):
        main(["kg", "--config", config_file, "--depth", "3", "--seed", "7"])
        flagged = capsys.readouterr().out
        main(["kg"])
        assert flagged == capsys.readouterr().out

    def test_set_of_a_removed_leaf_is_an_error(self):
        with pytest.raises(SystemExit,
                           match="error: no config field 'stream.window'"):
            main(["kg", "--set", "stream.window=4"])

    def test_config_file_that_is_no_object_is_an_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SystemExit, match=r"bad config file .*dict"):
            main(["kg", "--config", str(path)])

    def test_config_file_with_a_removed_leaf_is_an_error(self, tmp_path):
        data = ReproConfig().to_dict()
        data["training"]["log_every"] = 50  # written by an older build
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit,
                           match=r"bad config file .*'log_every'"):
            main(["kg", "--config", str(path)])


class TestPaperCommandsReadTheConfig:
    """``fig6`` and ``table1`` serve and bill the configured adaptation
    (measurement stubbed out, models trained for two steps)."""

    SETS = ["--set", "experiment.train_steps=2"]

    @pytest.fixture()
    def fig6(self, monkeypatch):
        """Runs ``repro fig6 ARGS``; returns its deployments' adaptation."""
        seen = []

        class Deploys:
            def __init__(self, pipeline, **_):
                seen.append(pipeline.deploy("Stealing").adaptation_config)

            def run(self):
                return None

        monkeypatch.setattr(repro.eval, "RetrievalDriftExperiment", Deploys)
        monkeypatch.setattr(repro.eval, "format_retrieval_drift",
                            lambda _: "")

        def run(*args):
            main(["fig6", *self.SETS, *args])
            return seen.pop()
        return run

    def test_fig6_serves_its_own_adaptation_by_default(self, fig6):
        from repro.eval import FIG6_ADAPTATION
        assert fig6() == FIG6_ADAPTATION

    def test_a_config_file_and_set_apply_over_fig6s_adaptation(
            self, fig6, tmp_path):
        from repro.eval import FIG6_ADAPTATION
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"adaptation": {"adaptation_rounds": 2}}))
        served = fig6("--config", str(path))
        assert served.adaptation_rounds == 2
        assert served.monitor == FIG6_ADAPTATION.monitor
        assert served.update == FIG6_ADAPTATION.update
        served = fig6("--config", str(path),
                      "--set", "adaptation.update.inner_steps=1")
        assert (served.adaptation_rounds, served.update.inner_steps) == (2, 1)
        assert served.update.learning_rate == \
            FIG6_ADAPTATION.update.learning_rate

    @pytest.fixture()
    def table1(self, monkeypatch, tmp_path, capsys):
        """Runs ``repro table1 ARGS`` over one registry; returns its
        output and the AUCs it was handed."""
        from repro.eval import EfficiencyResult

        class Measured:
            def __init__(self, *_, **__):
                pass

            def run(self):
                return EfficiencyResult(auc_baseline=0.61, auc_proposed=0.72)

        monkeypatch.setattr(repro.eval, "EfficiencyExperiment", Measured)

        def run(*sets):
            main(["table1", *self.SETS, "--set", f"registry_dir={tmp_path}",
                  *[arg for value in sets for arg in ("--set", value)]])
            return capsys.readouterr().out
        return run

    @staticmethod
    def edge_flops(table: str) -> float:
        [line] = [line for line in table.splitlines() if
                  "Edge Device Computational Cost per Adaptation" in line]
        return float(line.split()[-1])

    def test_table1_bills_the_configured_inner_steps(self, table1):
        default = self.edge_flops(table1())
        one_step = self.edge_flops(table1("adaptation.update.inner_steps=1"))
        # (1 + 3 x inner steps) sweeps per round: 4 against 10.
        assert one_step / default == pytest.approx(4 / 10, rel=1e-2)
        fewer = self.edge_flops(table1("adaptation.adaptation_rounds=3"))
        assert fewer / default == pytest.approx(1 / 2, rel=1e-2)

    def test_default_table1_prints_what_it_printed_before(self, table1,
                                                           tmp_path):
        """The default adaptation bills 3 inner steps x 6 rounds, the
        constants the table used before it read the config."""
        from repro.api import Pipeline
        from repro.edge import EfficiencyComparison
        printed = table1()
        config = ReproConfig().apply_overrides(
            ["experiment.train_steps=2", f"registry_dir={tmp_path}"])
        before = EfficiencyComparison(
            model=Pipeline(config).train("Stealing"),
            auc_baseline=0.61, auc_proposed=0.72).format_table()
        assert printed == before + "\n"
