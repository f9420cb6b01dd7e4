"""Tests for the command-line interface (parser wiring + light commands)."""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main

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
        assert args.seed == 7

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
        assert args.depth == 3

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

    def test_fleet_shards_flag(self):
        args = build_parser().parse_args(["fleet", "--shards", "2"])
        assert args.shards == 2
        assert build_parser().parse_args(["fleet"]).shards == 1

    def test_fleet_bad_shards(self):
        """Argument errors must fail before any training runs."""
        with pytest.raises(SystemExit, match="--shards must be"):
            main(["fleet", "--shards", "0"])

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
        assert args.shards == 1
        assert not args.adaptive

    def test_gateway_flags(self):
        args = build_parser().parse_args(
            ["gateway", "--streams", "8", "--port", "0", "--host", "0.0.0.0",
             "--max-queue-depth", "2", "--shards", "2", "--adaptive"])
        assert args.streams == 8
        assert args.port == 0
        assert args.host == "0.0.0.0"
        assert args.max_queue_depth == 2
        assert args.shards == 2
        assert args.adaptive

    def test_gateway_bad_shards(self):
        with pytest.raises(SystemExit, match="--shards must be"):
            main(["gateway", "--shards", "0"])


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
