"""Parity of the three CLI entry forms.

The toolkit is invokable as the ``repro`` console script
(``repro.cli:main``), as ``python -m repro`` (``repro/__main__.py``) and
as ``python -m repro.cli`` — all three must expose the identical surface.
These tests pin that: the subcommand set parsed out of each form's
``--help`` equals the one :func:`repro.cli.build_parser` defines, and the
module forms actually execute (not just import).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def parser_subcommands() -> set[str]:
    """Subcommand names straight from the argparse definition."""
    parser = build_parser()
    actions = [
        a for a in parser._actions
        if a.__class__.__name__ == "_SubParsersAction"
    ]
    assert len(actions) == 1
    return set(actions[0].choices)


def help_subcommands(text: str) -> set[str]:
    """Subcommand names from a ``--help`` usage line: ``{a,b,c}``."""
    m = re.search(r"\{([a-z,]+)\}", text)
    assert m, f"no subcommand set in help output:\n{text}"
    return set(m.group(1).split(","))


def run_module(mod: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", mod, *args],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
    )


class TestParity:
    def test_parser_defines_expected_surface(self):
        assert parser_subcommands() == {
            "partition", "tables", "figures", "generate", "cache", "serve",
            "profile", "bench",
        }

    def test_python_m_repro_exposes_full_surface(self):
        proc = run_module("repro", "--help")
        assert proc.returncode == 0, proc.stderr
        assert help_subcommands(proc.stdout) == parser_subcommands()

    def test_python_m_repro_cli_exposes_full_surface(self):
        proc = run_module("repro.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert help_subcommands(proc.stdout) == parser_subcommands()

    def test_console_entry_point_is_cli_main(self):
        # the `repro` script is generated from repro.cli:main — the same
        # callable the in-process tests drive; its parser IS build_parser()
        from repro import cli

        assert cli.main is main
        assert help_subcommands(
            build_parser().format_help()
        ) == parser_subcommands()

    def test_module_form_runs_a_real_command(self, tmp_path):
        out = tmp_path / "g.json"
        proc = run_module(
            "repro", "generate", "--n", "6", "--m", "8", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_module_form_propagates_exit_codes(self):
        proc = run_module("repro", "partition", "--input", "/nonexistent",
                          "--k", "2")
        assert proc.returncode != 0

    def test_subcommand_helps_match_in_and_out_of_process(self):
        # per-subcommand option surface: the module form shows exactly the
        # options the in-process parser defines (spot-check partition's
        # evolve and vector-resource knobs so surface drift is caught
        # where it matters)
        proc = run_module("repro", "partition", "--help")
        assert proc.returncode == 0
        for flag in ("--method", "--generations", "--time-budget",
                     "--pop-size", "--no-cache", "--jobs", "--model",
                     "--resources", "--rmax", "--refine"):
            assert flag in proc.stdout, f"{flag} missing from module help"

    def test_vector_flags_on_every_entry_form(self):
        # --resources/--rmax must appear identically via `python -m repro`
        # and `python -m repro.cli`, and both on partition and generate
        for mod in ("repro", "repro.cli"):
            proc = run_module(mod, "partition", "--help")
            assert proc.returncode == 0, proc.stderr
            assert "--resources" in proc.stdout, f"{mod}: partition lost --resources"
            assert "--rmax" in proc.stdout, f"{mod}: partition lost --rmax"
            gen = run_module(mod, "generate", "--help")
            assert gen.returncode == 0, gen.stderr
            assert "--resources" in gen.stdout, f"{mod}: generate lost --resources"
            assert "--n-resources" in gen.stdout, f"{mod}: generate lost --n-resources"

    def test_vector_rmax_rejected_identically_on_unsupported_methods(
        self, tmp_path
    ):
        # a comma-separated --rmax on a method without vector support must
        # fail with the same clear error through every entry form
        graph = tmp_path / "g.json"
        proc = run_module(
            "repro", "generate", "--n", "8", "--m", "12",
            "--out", str(graph), "--resources", str(tmp_path / "r.json"),
        )
        assert proc.returncode == 0, proc.stderr
        argv = [
            "partition", "--input", str(graph), "--k", "2",
            "--rmax", "5,5,5,5", "--resources", str(tmp_path / "r.json"),
            "--method", "spectral",
        ]
        outcomes = []
        for mod in ("repro", "repro.cli"):
            proc = run_module(mod, *argv)
            outcomes.append((proc.returncode, proc.stderr.strip()))
        # in-process main (the console script's entry point)
        import contextlib
        import io

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        outcomes.append((code, err.getvalue().strip()))
        assert all(o == outcomes[0] for o in outcomes), outcomes
        code, message = outcomes[0]
        assert code == 1
        # the library's message: the CLI forwards the flags unchecked
        assert "method='spectral' does not run on vector budgets " \
            "(resources=); methods that do: ('gp', 'evolve')" in message

    def test_refine_flag_on_every_entry_form(self):
        # --refine (with its three spellings) must surface identically via
        # `python -m repro` and `python -m repro.cli`
        for mod in ("repro", "repro.cli"):
            proc = run_module(mod, "partition", "--help")
            assert proc.returncode == 0, proc.stderr
            assert "--refine" in proc.stdout, f"{mod}: partition lost --refine"
            assert "fm+flow" in proc.stdout, f"{mod}: --refine lost a choice"

    def _outcomes(self, argv):
        """(returncode, stderr) of *argv* through all three entry forms."""
        import contextlib
        import io

        outcomes = []
        for mod in ("repro", "repro.cli"):
            proc = run_module(mod, *argv)
            outcomes.append((proc.returncode, proc.stderr.strip()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        outcomes.append((code, err.getvalue().strip()))
        return outcomes

    def test_refine_rejected_identically_on_unsupported_methods(
        self, tmp_path
    ):
        # --refine fm+flow on a method without a refinement stage must fail
        # with the same clear error through every entry form
        graph = tmp_path / "g.json"
        proc = run_module(
            "repro", "generate", "--n", "8", "--m", "12", "--out", str(graph)
        )
        assert proc.returncode == 0, proc.stderr
        argv = [
            "partition", "--input", str(graph), "--k", "2",
            "--method", "spectral", "--refine", "fm+flow",
        ]
        outcomes = self._outcomes(argv)
        assert all(o == outcomes[0] for o in outcomes), outcomes
        code, message = outcomes[0]
        assert code == 1
        assert "refine" in message and "spectral" in message

    def test_refine_accepted_identically_on_hypergraph_gp(self, tmp_path):
        # hypergraph GP has a refine stage like every multilevel method:
        # the run succeeds, and agrees, through every entry form
        graph = tmp_path / "g.json"
        proc = run_module(
            "repro", "generate", "--n", "8", "--m", "12", "--out", str(graph)
        )
        assert proc.returncode == 0, proc.stderr
        outs = [tmp_path / f"a{i}.json" for i in range(3)]
        argv = [
            "partition", "--input", str(graph), "--k", "2",
            "--model", "hypergraph", "--method", "gp",
            "--refine", "fm+flow", "--assign-out",
        ]
        outcomes = [
            (proc.returncode, proc.stderr.strip())
            for proc in (
                run_module(mod, *argv, str(out))
                for mod, out in zip(("repro", "repro.cli"), outs)
            )
        ]
        import contextlib
        import io

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, str(outs[2])])
        outcomes.append((code, err.getvalue().strip()))
        assert all(o == outcomes[0] for o in outcomes), outcomes
        assert outcomes[0] == (0, "")
        assigns = [json.loads(out.read_text())["assign"] for out in outs]
        assert assigns[0] == assigns[1] == assigns[2]

    def test_refine_accepted_on_gp(self, tmp_path):
        # the happy path runs (and agrees) through every entry form
        graph = tmp_path / "g.json"
        proc = run_module(
            "repro", "generate", "--n", "10", "--m", "18", "--out", str(graph)
        )
        assert proc.returncode == 0, proc.stderr
        argv = [
            "partition", "--input", str(graph), "--k", "2",
            "--bmax", "40", "--rmax", "250", "--refine", "fm+flow",
        ]
        outcomes = self._outcomes(argv)
        assert all(o == outcomes[0] for o in outcomes), outcomes
        assert outcomes[0][0] in (0, 2), outcomes[0]
        assert outcomes[0][1] == ""
