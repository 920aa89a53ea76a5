"""CLI integration: ``fastsim-repro lint`` and the ``fastsim-lint``
console entry point — two doors onto one driver (exit codes, formats,
the same flags behind both)."""

import json
import re
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint.runner import main as lint_main

CLEAN_PY = "VALUES = [1, 2, 3]\n"
DIRTY_PY = "import random\nx = random.random()\n"
CLEAN_ASM = "main:\n    clr %l0\n    out %l0\n    halt\n"
DIRTY_ASM = "main:\n    ba nowhere\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "clean.py").write_text(CLEAN_PY)
    (tmp_path / "dirty.py").write_text(DIRTY_PY)
    (tmp_path / "clean.s").write_text(CLEAN_ASM)
    (tmp_path / "dirty.s").write_text(DIRTY_ASM)
    return tmp_path


class TestCliLint:
    def test_clean_file_exits_zero(self, tree, capsys):
        code = cli_main(["lint", str(tree / "clean.py")])
        assert code == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        code = cli_main(["lint", str(tree / "dirty.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "det/unseeded-random" in out

    def test_directory_walk_hits_both_languages(self, tree, capsys):
        code = cli_main(["lint", str(tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "det/unseeded-random" in out
        assert "asm/undefined-label" in out

    def test_json_format_is_valid_and_stable(self, tree, capsys):
        code = cli_main(["lint", "--format", "json",
                         str(tree / "dirty.py")])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["counts"]["total"] == 1
        (finding,) = document["findings"]
        assert finding["rule"] == "det/unseeded-random"
        assert finding["severity"] == "error"
        assert finding["line"] == 2

    def test_strict_flag_forces_replay_rules(self, tree, capsys):
        clock = tree / "clock.py"
        clock.write_text("import time\nt = time.time()\n")
        assert cli_main(["lint", str(clock)]) == 0
        capsys.readouterr()
        assert cli_main(["lint", "--strict", str(clock)]) == 1
        assert "det/time-dependent" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [
        lambda argv: cli_main(["lint"] + argv), lint_main,
    ], ids=["fastsim-repro", "fastsim-lint"])
    def test_strict_with_flow_is_a_usage_error(self, entry, tree, capsys):
        """``--flow`` used to drop ``--strict`` silently, so a file with
        a set iteration and a clock read came back clean."""
        hazards = tree / "hazards.py"
        hazards.write_text("import time\nfor x in set([1, 2]):\n"
                           "    print(time.time())\n")
        with pytest.raises(SystemExit) as exc:
            entry(["--strict", "--flow", str(hazards)])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert entry(["--strict", str(hazards)]) == 1

    def test_missing_path_is_usage_error(self, tree, capsys):
        assert cli_main(["lint", str(tree / "does-not-exist.py")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestCliLintAsm:
    """``lint FILE.s`` runs the assembly family (the ``lint-asm`` alias
    is gone)."""

    def test_clean_program_exits_zero(self, tree):
        assert cli_main(["lint", str(tree / "clean.s")]) == 0

    def test_broken_program_exits_one(self, tree, capsys):
        assert cli_main(["lint", str(tree / "dirty.s")]) == 1
        assert "asm/undefined-label" in capsys.readouterr().out

    def test_requires_a_file(self, capsys):
        """...under the old name, which is no longer a command."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint-asm"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint-asm'" in capsys.readouterr().err

    def test_multiple_files(self, tree, capsys):
        code = cli_main(["lint", str(tree / "clean.s"),
                         str(tree / "dirty.s")])
        assert code == 1
        assert "nowhere" in capsys.readouterr().out


DOORS = pytest.mark.parametrize("entry", [
    lambda argv: cli_main(["lint"] + argv), lint_main,
], ids=["fastsim-repro", "fastsim-lint"])


class TestOneDriverTwoDoors:
    """The flags are declared once (``runner.add_arguments``), so the
    doors cannot drift: ``fastsim-repro lint`` had no ``--list-rules``
    while the two parsers were hand-copied."""

    @staticmethod
    def _out(entry, argv, capsys):
        try:
            entry(argv)
        except SystemExit as exc:  # --help exits through argparse
            assert exc.code == 0
        return capsys.readouterr().out

    @DOORS
    def test_help_lists_the_same_options(self, entry, capsys):
        """...and exactly these: ``--jobs``, ``--baseline``,
        ``--write-baseline`` and ``--format sarif`` are gone (``--quiet``
        is ``fastsim-repro``'s own, accepted by every subcommand)."""
        text = self._out(entry, ["--help"], capsys)
        options = set(re.findall(r"--[a-z][a-z-]*", text)) - {"--quiet"}
        assert options == {"--help", "--format", "--strict", "--flow",
                           "--list-rules"}
        assert "{text,json}" in text

    @DOORS
    def test_list_rules_prints_the_same_lines(self, entry, capsys):
        lines = self._out(entry, ["--list-rules"], capsys).splitlines()
        assert lines == self._out(
            lint_main, ["--list-rules"], capsys).splitlines()
        assert "flow/tainted-call" in lines and "asm/undefined-label" in lines


class TestConsoleScript:
    def test_list_rules_covers_every_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        listed = set(capsys.readouterr().out.split())
        assert {"det/unseeded-random", "det/set-iteration",
                "obs/result-used", "flow/tainted-call",
                "asm/read-before-write",
                "asm/delay-slot-hazard"} <= listed
        assert {rule.partition("/")[0] for rule in listed} == {
            "asm", "det", "flow", "obs"}

    def test_exit_codes_match_cli(self, tree, capsys):
        assert lint_main([str(tree / "clean.py")]) == 0
        assert lint_main([str(tree / "dirty.py")]) == 1
        capsys.readouterr()

    def test_unknown_path_exits_two(self, tree, capsys):
        assert lint_main([str(tree / "missing")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_suppression_comment_respected(self, tmp_path, capsys):
        target = tmp_path / "waived.py"
        target.write_text(textwrap.dedent("""
            import random
            x = random.random()  # repro-lint: disable=det/unseeded-random
        """))
        assert lint_main([str(target)]) == 0
