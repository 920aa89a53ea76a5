"""Tests for the CLI toolchain commands (asm/disasm/trace/profile)."""

import pytest

from repro.cli import main

SOURCE = """
main:
    mov 3, %l0
    smul %l0, 5, %l1
    out %l1
    halt
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(SOURCE)
    return path


class TestAsmDisasm:
    def test_asm_default_output(self, source_file, capsys):
        assert main(["asm", str(source_file)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "4 instructions" in out
        assert (source_file.parent / "prog.fsx").exists()

    def test_asm_explicit_output(self, source_file, tmp_path, capsys):
        target = tmp_path / "custom.fsx"
        assert main(["asm", str(source_file), "-o", str(target)]) == 0
        assert target.exists()

    def test_disasm(self, source_file, tmp_path, capsys):
        binary = tmp_path / "prog.fsx"
        main(["asm", str(source_file), "-o", str(binary)])
        capsys.readouterr()
        assert main(["disasm", str(binary)]) == 0
        out = capsys.readouterr().out
        assert "smul %l0, 5, %l1" in out
        assert out.count("\n") == 4

    def test_run_binary(self, source_file, tmp_path, capsys):
        binary = tmp_path / "prog.fsx"
        main(["asm", str(source_file), "-o", str(binary)])
        capsys.readouterr()
        assert main(["run-binary", str(binary)]) == 0
        out = capsys.readouterr().out
        assert "output: [15]" in out

    def test_asm_requires_file(self):
        with pytest.raises(SystemExit):
            main(["asm"])

    def test_disasm_requires_file(self):
        with pytest.raises(SystemExit):
            main(["disasm"])


class TestTraceProfile:
    def test_trace_workload(self, capsys):
        assert main(["trace", "compress", "--scale", "tiny",
                     "--cycles", "5"]) == 0
        out = capsys.readouterr().out
        assert "cycle 0" in out
        assert "cycle 4" in out
        assert "cycle 5" not in out

    def test_profile_workload(self, capsys):
        assert main(["profile", "compress", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline profile" in out
        assert "IPC" in out

    def test_trace_requires_workload(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_mix_subset(self, capsys):
        assert main(["mix", "--workloads", "compress", "--scale",
                     "tiny"]) == 0
        assert "compress" in capsys.readouterr().out


UNDEFINED_SYMBOL = "main:\n    ba nowhere\n    nop\n    halt\n"


class TestNamesThatResolveToNothing:
    """An unknown workload or an unreadable / malformed program file is
    a usage error — one ``error:`` line, exit 2, no traceback — not a
    ``WorkloadError`` / ``FileNotFoundError`` / ``EncodingError`` /
    ``AssemblerError`` stack (or, for ``--workloads``, exit 1)."""

    @pytest.mark.parametrize("argv", [
        ["run", "NOSUCH"],
        ["trace", "NOSUCH"],
        ["profile", "NOSUCH"],
        ["mix", "--workloads", "quake"],
        ["asm", "{tmp}/missing.s"],
        ["disasm", "{tmp}/missing.fsx"],
        ["run-binary", "{tmp}/missing.fsx"],
        ["run-binary", "{tmp}/garbage.fsx"],
        ["asm", "{tmp}/undefined.s"],
    ], ids=lambda argv: "-".join(argv).replace("{tmp}/", ""))
    def test_is_one_error_line_and_exit_2(self, argv, tmp_path, capsys):
        (tmp_path / "garbage.fsx").write_bytes(b"garbage")
        (tmp_path / "undefined.s").write_text(UNDEFINED_SYMBOL)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_a_failure_while_simulating_still_propagates(
            self, source_file, tmp_path, monkeypatch, capsys):
        """Only load / assemble are guarded: what a running simulation
        raises is not folded into a usage error."""
        import repro.api
        from repro.errors import EncodingError

        binary = tmp_path / "prog.fsx"
        main(["asm", str(source_file), "-o", str(binary)])

        def broken(*args, **kwargs):
            raise EncodingError("raised mid-simulation")

        monkeypatch.setattr(repro.api, "simulate", broken)
        with pytest.raises(EncodingError, match="mid-simulation"):
            main(["run-binary", str(binary)])
        with pytest.raises(EncodingError, match="mid-simulation"):
            main(["run", "compress", "--scale", "tiny"])
