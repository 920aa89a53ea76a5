"""Runner-layer features: input dedupe, file-level suppressions, the
default (no-path) gate, and the flow mode at the console entry point.
"""

import os

import pytest

from repro.lint import runner
from repro.lint.runner import discover, lint_source, main
from repro.lint.suppress import (
    FILE_MARKER_WINDOW,
    apply_suppressions,
    file_suppressions_for,
)

RNG_SOURCE = "import random\n\n\ndef roll():\n    return random.random()\n"

FIXTURE_ROOT = os.path.join(
    os.path.dirname(__file__), "fixtures", "flowpkg")


@pytest.fixture
def rng_tree(tmp_path):
    """Three files that each fire det/unseeded-random once."""
    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text(RNG_SOURCE)
    return tmp_path


class TestDiscoverDedupe:
    def test_file_plus_containing_directory_lints_once(self, rng_tree):
        python_files, _ = discover(
            [str(rng_tree / "a.py"), str(rng_tree)])
        assert sorted(os.path.basename(p) for p in python_files) == [
            "a.py", "b.py", "c.py"]

    def test_first_occurrence_order_is_kept(self, rng_tree):
        python_files, _ = discover(
            [str(rng_tree / "c.py"), str(rng_tree)])
        assert [os.path.basename(p) for p in python_files] == [
            "c.py", "a.py", "b.py"]

    def test_same_directory_twice_is_one_walk(self, rng_tree):
        once, _ = discover([str(rng_tree)])
        twice, _ = discover([str(rng_tree), str(rng_tree)])
        assert twice == once


class TestFileSuppressions:
    def test_head_of_file_marker_disables_rule_module_wide(self):
        source = ("# repro-lint: disable-file=det/unseeded-random\n"
                  + RNG_SOURCE)
        assert lint_source(source, path="x.py") == []

    def test_marker_outside_the_window_has_no_effect(self):
        filler = "# padding\n" * FILE_MARKER_WINDOW
        source = (filler
                  + "# repro-lint: disable-file=det/unseeded-random\n"
                  + RNG_SOURCE)
        findings = lint_source(source, path="x.py")
        assert [f.rule for f in findings] == ["det/unseeded-random"]

    def test_disable_file_all(self):
        source = "# repro-lint: disable-file=all\n" + RNG_SOURCE
        assert lint_source(source, path="x.py") == []

    def test_file_marker_parsing(self):
        source = "# repro-lint: disable-file=rule-a, rule-b\nx = 1\n"
        assert file_suppressions_for(source) == frozenset(
            {"rule-a", "rule-b"})

    def test_file_marker_does_not_hide_other_rules(self):
        source = "# repro-lint: disable-file=det/id-dependent\n" + RNG_SOURCE
        findings = apply_suppressions(
            lint_source(source, path="x.py"), source)
        assert [f.rule for f in findings] == ["det/unseeded-random"]


class TestCliIntegration:
    def test_no_paths_is_the_gate_from_any_directory(
            self, tmp_path, monkeypatch, capsys):
        """The default used to be the cwd-relative ``src/repro`` — a
        usage error from anywhere but the checkout root. (The session
        itself is ``test_flow.py``'s business; only the resolution and
        the branch taken are checked here.)"""
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        calls = []
        monkeypatch.setattr(
            runner, "lint_flow",
            lambda paths: calls.append(("flow", list(paths))) or [])
        monkeypatch.setattr(
            runner, "lint_paths", lambda paths, strict:
            calls.append(("per-file", list(paths), strict)) or [])
        monkeypatch.chdir(tmp_path)
        assert main([]) == 0
        assert "clean: no findings" in capsys.readouterr().out
        assert main(["--strict"]) == 0
        assert calls == [("flow", [root]), ("per-file", [root], True)]
        assert os.path.isfile(os.path.join(root, "lint", "runner.py"))

    def test_flow_mode_gates_on_the_fixture_package(self, capsys):
        assert main(["--flow", FIXTURE_ROOT]) == 1
        out = capsys.readouterr().out
        assert "flow/tainted-call" in out
        assert "flow/unmanifested-write" in out

    def test_list_rules_includes_flow_family(self, capsys):
        assert main(["--list-rules"]) == 0
        rules = capsys.readouterr().out.split()
        for rule in ("flow/tainted-call", "flow/missing-entry",
                     "flow/unmanifested-write", "flow/codegen-name",
                     "flow/codegen-attr", "flow/codegen-shape",
                     "flow/codegen-drift"):
            assert rule in rules
