"""Command-line behaviour: subcommands, exit codes, output handling."""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc

import pytest

from authgraph import parse_state, states_equal
from authgraph.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VIOLATIONS,
    main,
)


def path(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestCheck:
    def test_connected_state(self, fixtures_dir, capsys):
        assert main(["check", path(fixtures_dir, "rights_basic.json")]) == EXIT_OK
        assert capsys.readouterr().out == "ok\n"

    def test_orphaned_grantor(self, fixtures_dir, capsys):
        assert main(["check", path(fixtures_dir, "orphan_grantor.json")]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert "B -> C" in out[0] and "TT" in out[0]


class TestRights:
    @pytest.mark.parametrize(
        "principal,expected",
        [
            ("A", "access=true delegation=true"),
            ("D", "access=true delegation=true"),
            ("C", "access=true delegation=false"),
            ("E", "access=false delegation=false"),
        ],
    )
    def test_reporting(self, fixtures_dir, capsys, principal, expected):
        assert main(["rights", path(fixtures_dir, "rights_basic.json"), principal]) == EXIT_OK
        assert capsys.readouterr().out.strip() == expected

    def test_unknown_principal(self, fixtures_dir, capsys):
        rc = main(["rights", path(fixtures_dir, "rights_basic.json"), "Z"])
        assert rc == EXIT_PRECONDITION
        assert "error:" in capsys.readouterr().err


class TestApply:
    def test_writes_canonical_result_file(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(
            [
                "apply",
                path(fixtures_dir, "revocation_base.json"),
                "--scheme",
                "WLD",
                "--from",
                "A",
                "--to",
                "B",
                "-o",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        assert out.read_text(encoding="utf-8") == (fixtures_dir / "after_wld.json").read_text(
            encoding="utf-8"
        )
        err = capsys.readouterr().err
        assert "revoke WLD A -> B: +2/-3 positive, +0/-0 negative" in err

    def test_stdout_by_default(self, fixtures_dir, capsys):
        rc = main(
            [
                "apply",
                path(fixtures_dir, "revocation_base.json"),
                "--scheme",
                "SGD",
                "--from",
                "A",
                "--to",
                "B",
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (fixtures_dir / "after_sgd.json").read_text(
            encoding="utf-8"
        )

    def test_sgd_variant_flag(self, fixtures_dir, capsys):
        rc = main(
            [
                "apply",
                path(fixtures_dir, "revocation_base.json"),
                "--scheme",
                "SGD",
                "--from",
                "A",
                "--to",
                "B",
                "--sgd-variant",
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (fixtures_dir / "after_sgd_variant.json").read_text(
            encoding="utf-8"
        )

    def test_missing_authorization(self, fixtures_dir, capsys):
        rc = main(
            [
                "apply",
                path(fixtures_dir, "empty_six.json"),
                "--scheme",
                "WLD",
                "--from",
                "A",
                "--to",
                "B",
            ]
        )
        assert rc == EXIT_PRECONDITION
        assert "error:" in capsys.readouterr().err


class TestGrantNegativeUndo:
    def test_grant_to_stdout(self, fixtures_dir, capsys):
        rc = main(
            [
                "grant",
                path(fixtures_dir, "empty_six.json"),
                "--from",
                "A",
                "--to",
                "B",
                "--kind",
                "TT",
            ]
        )
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        state = parse_state(captured.out)
        assert [(a.grantor, a.grantee, a.kind.name) for a in state.positive] == [("A", "B", "TT")]
        assert "grant A -> B TT" in captured.err

    def test_negative_needs_active_grantor(self, fixtures_dir, capsys):
        rc = main(
            [
                "negative",
                path(fixtures_dir, "blocked_chain.json"),
                "--from",
                "B",
                "--to",
                "D",
            ]
        )
        assert rc == EXIT_PRECONDITION
        assert "error:" in capsys.readouterr().err

    def test_undo_round_trip(self, fixtures_dir, tmp_path, capsys):
        negated = tmp_path / "negated.json"
        assert (
            main(
                [
                    "apply",
                    path(fixtures_dir, "revocation_base.json"),
                    "--scheme",
                    "WLN",
                    "--from",
                    "A",
                    "--to",
                    "B",
                    "-o",
                    str(negated),
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        assert main(["undo", str(negated), "--from", "A", "--to", "B"]) == EXIT_OK
        restored = parse_state(capsys.readouterr().out)
        original = parse_state((fixtures_dir / "revocation_base.json").read_text(encoding="utf-8"))
        assert states_equal(restored, original)

    def test_undo_without_labelled_negative(self, fixtures_dir, capsys):
        rc = main(
            [
                "undo",
                path(fixtures_dir, "revocation_base.json"),
                "--from",
                "E",
                "--to",
                "F",
            ]
        )
        assert rc == EXIT_PRECONDITION
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_replay_reaches_frozen_state(self, fixtures_dir, capsys):
        rc = main(
            [
                "trace",
                path(fixtures_dir, "empty_six.json"),
                path(fixtures_dir, "build_and_wld.trace.json"),
            ]
        )
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == (fixtures_dir / "after_wld.json").read_text(encoding="utf-8")
        steps = [line for line in captured.err.splitlines() if line.startswith("step ")]
        assert len(steps) == 8
        assert steps[-1].startswith("step 8: revoke WLD A -> B:")

    def test_malformed_trace(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "bad.trace.json"
        bad.write_text('[{"op": "promote", "from": "A", "to": "B"}]', encoding="utf-8")
        rc = main(["trace", path(fixtures_dir, "empty_six.json"), str(bad)])
        assert rc == EXIT_PARSE
        assert "unknown operation" in capsys.readouterr().err

    def test_midway_failure_writes_nothing(self, fixtures_dir, tmp_path, capsys):
        trace = tmp_path / "fails.trace.json"
        trace.write_text(
            json.dumps(
                [
                    {"op": "grant", "from": "A", "to": "B", "kind": "TT"},
                    {"op": "revoke", "from": "A", "to": "C", "scheme": "WLD"},
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "result.json"
        rc = main(
            ["trace", path(fixtures_dir, "empty_six.json"), str(trace), "-o", str(out)]
        )
        assert rc == EXIT_PRECONDITION
        assert not out.exists()
        err = capsys.readouterr().err
        assert "step 1: grant A -> B TT" in err and "error:" in err


    def test_memory_does_not_grow_with_trace_length(self, tmp_path, capsys):
        names = [f"P{n}" for n in range(1000)]
        state = {
            "soa": names[0],
            "principals": names,
            "positive": [{"from": names[0], "to": p, "kind": "TT"} for p in names[1:]],
            "negative": [],
            "time": 0,
        }
        state_file = tmp_path / "star.json"
        state_file.write_text(json.dumps(state), encoding="utf-8")

        def peak(length):
            trace = tmp_path / f"chain{length}.trace.json"
            ops = [
                {"op": "grant", "from": names[k], "to": names[k + 1], "kind": "TF"}
                for k in range(1, length + 1)
            ]
            trace.write_text(json.dumps(ops), encoding="utf-8")
            out = tmp_path / f"out{length}.json"
            tracemalloc.start()
            try:
                assert main(["trace", str(state_file), str(trace), "-o", str(out)]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        short, long = peak(10), peak(100)
        assert long < 1.3 * short, (short, long)


class TestExport:
    def test_dot_on_stdout(self, fixtures_dir, capsys, blocked_chain):
        from authgraph import export_dot

        rc = main(["export", path(fixtures_dir, "blocked_chain.json")])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == export_dot(blocked_chain)

    def test_dot_to_file(self, fixtures_dir, tmp_path):
        out = tmp_path / "graph.dot"
        rc = main(["export", path(fixtures_dir, "blocked_chain.json"), "-o", str(out)])
        assert rc == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text.startswith("digraph authorization {") and text.endswith("}\n")


class TestFailureModes:
    def test_usage_errors(self, fixtures_dir, capsys):
        assert main([]) == EXIT_PARSE
        assert main(["frobnicate"]) == EXIT_PARSE
        assert main(["apply", path(fixtures_dir, "empty_six.json")]) == EXIT_PARSE
        assert (
            main(
                [
                    "apply",
                    path(fixtures_dir, "empty_six.json"),
                    "--scheme",
                    "XXX",
                    "--from",
                    "A",
                    "--to",
                    "B",
                ]
            )
            == EXIT_PARSE
        )
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["check", str(tmp_path / "absent.json")])
        assert rc == EXIT_PARSE
        assert "cannot read" in capsys.readouterr().err

    def test_corrupt_input_file(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(["check", str(broken)]) == EXIT_PARSE
        assert "invalid document" in capsys.readouterr().err

    def test_deeply_nested_input_is_a_parse_error(self, tmp_path, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000, encoding="utf-8")
        assert main(["check", str(nested)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal error" not in err

    @pytest.mark.parametrize(
        "command, content",
        [
            pytest.param("check", b'{"soa": "A", "time": ' + b"1" * 5000 + b"}", id="huge-integer"),
            pytest.param("check", b'{"soa": "\xff"}', id="not-utf8"),
            pytest.param(
                "export",
                b'{"soa": "A", "principals": ["A", "\\ud800"], "positive": [],'
                b' "negative": [], "time": 0}',
                id="lone-surrogate",
            ),
            pytest.param(
                "check",
                b'{"soa": "A", "principals": ["A", ""], "positive": [], "negative": [], "time": 0}',
                id="empty-principal",
            ),
        ],
    )
    def test_hostile_input_is_a_parse_error(self, tmp_path, capsys, command, content):
        hostile = tmp_path / "hostile.json"
        hostile.write_bytes(content)
        assert main([command, str(hostile)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal error" not in err

    def test_malformed_label_is_a_parse_error(self, tmp_path, capsys):
        doc = {
            "soa": "A",
            "principals": ["A", "B"],
            "positive": [
                {"from": "A", "to": "B", "kind": "TT", "label": {"from": "", "to": "B", "seq": 0}}
            ],
            "negative": [],
            "time": 1,
        }
        bad = tmp_path / "bad_label.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: positive[0]: label")

    def test_label_root_must_be_a_principal(self, tmp_path, capsys):
        doc = {
            "soa": "a",
            "principals": ["a", "b"],
            "positive": [{"from": "a", "to": "b", "kind": "TT"}],
            "negative": [{"from": "a", "to": "b", "label": {"from": "z", "to": "q", "seq": 5}}],
            "time": 0,
        }
        bad = tmp_path / "foreign_label.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: negative[0]: label root 'z' is not a principal\n"

    def test_lone_surrogate_endpoint_is_located(self, tmp_path, capsys):
        hostile = tmp_path / "endpoint.json"
        hostile.write_bytes(
            b'{"soa": "A", "principals": ["A", "B"], "positive":'
            b' [{"from": "A", "to": "\\ud800", "kind": "TT"}], "negative": [], "time": 0}'
        )
        assert main(["check", str(hostile)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: positive[0]: unknown principal")

    def test_unwritable_output(self, fixtures_dir, tmp_path, capsys):
        dest = tmp_path / "no" / "such" / "dir.dot"
        rc = main(["export", path(fixtures_dir, "empty_six.json"), "-o", str(dest)])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == f"error: cannot write {dest}: No such file or directory\n"

    def test_output_that_is_a_directory(self, fixtures_dir, tmp_path, capsys):
        # The document is written to a temporary file beside the target,
        # which cannot replace a directory: the temporary file goes again.
        dest = tmp_path / "out"
        dest.mkdir()
        rc = main(["export", path(fixtures_dir, "empty_six.json"), "-o", str(dest)])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: cannot write {dest}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any(dest.iterdir())

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "authgraph" in capsys.readouterr().out


class TestModuleInvocation:
    def test_python_dash_m(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "authgraph.cli", "rights", path(fixtures_dir, "rights_basic.json"), "C"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == "access=true delegation=false"

    def test_the_cli_leaves_the_reference_evaluator_unimported(self):
        # No command uses `oracle`; the package imports it on first use.
        code = (
            "import sys, authgraph.cli\n"
            "assert 'authgraph.oracle' not in sys.modules\n"
            "from authgraph import fixpoint_apply_delete\n"
            "import authgraph\n"
            "assert fixpoint_apply_delete is authgraph.oracle.fixpoint_apply_delete\n"
            "assert all(hasattr(authgraph, name) for name in authgraph.__all__)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr


# Run in a fresh interpreter: the command's exit code, then the package's
# modules it loaded, as the installed `authgraph` script would.
LOADED_BY = """
import json, sys
from authgraph.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "authgraph")]))
"""
STARTUP = {"authgraph", "authgraph.cli", "authgraph.errors", "authgraph.io", "authgraph.model"}


class TestModulesLoaded:
    @staticmethod
    def loaded(fixtures_dir, argv):
        argv = [path(fixtures_dir, arg) if arg.endswith(".json") else arg for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_BY, *argv], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == EXIT_OK, proc.stderr
        return set(modules)

    def test_export_loads_no_engine(self, fixtures_dir, tmp_path):
        argv = ["export", "revocation_base.json", "-o", str(tmp_path / "out.dot")]
        assert self.loaded(fixtures_dir, argv) == STARTUP

    @pytest.mark.parametrize(
        "argv", [["check", "rights_basic.json"], ["rights", "rights_basic.json", "C"]], ids=["check", "rights"]
    )
    def test_queries_load_semantics(self, fixtures_dir, argv):
        assert self.loaded(fixtures_dir, argv) == STARTUP | {"authgraph.semantics"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "empty_six.json", "build_and_wld.trace.json"],
            ["apply", "revocation_base.json", "--scheme", "SGD", "--from", "A", "--to", "B"],
            ["grant", "revocation_base.json", "--from", "A", "--to", "F", "--kind", "TT"],
            ["negative", "revocation_base.json", "--from", "A", "--to", "F"],
            ["undo", "after_wln.json", "--from", "A", "--to", "B"],
        ],
        ids=["trace", "apply", "grant", "negative", "undo"],
    )
    def test_operations_load_the_engine_only(self, fixtures_dir, tmp_path, argv):
        argv = [*argv, "-o", str(tmp_path / "out.json")]
        assert self.loaded(fixtures_dir, argv) == STARTUP | {"authgraph.revocation"}

    def test_the_package_alone_loads_no_submodule(self):
        code = (
            "import sys, authgraph\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'authgraph'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['authgraph']\n"
