import contextlib
import io
import itertools
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chowmot import Cycle, InvalidInputError, KKernel, cli, k_compose, motives
from chowmot.cli import main
from chowmot.verify import run_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CYCLE_H_ON_P1 = json.dumps(
    {"variety": {"factors": [1]}, "terms": [{"exps": [1], "coeff": "1"}]}
)
DIAGONAL_P1 = json.dumps(
    {
        "source": {"factors": [1]},
        "target": {"factors": [1]},
        "cycle": {
            "variety": {"factors": [1, 1]},
            "terms": [
                {"exps": [0, 1], "coeff": "1"},
                {"exps": [1, 0], "coeff": "1"},
            ],
        },
    }
)


class TestEuler:
    def test_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--variety", "[2]", "--line-bundle", "[3]")
        assert code == 0
        assert out.strip() == "10"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "euler", "--variety", "[2]", "--line-bundle", "[3]", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"euler_characteristic": "10"}

    def test_negative_twist(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--variety", "[1]", "--line-bundle", "[-1]")
        assert code == 0
        assert out.strip() == "0"

    def test_kclass_json_checks_its_variety(self, capsys):
        ch = json.loads(CYCLE_H_ON_P1)  # ch(O(1)) - ch(O) on the line
        code, out, _ = run_cli(capsys, "euler", json.dumps({"variety": {"factors": [1]}, "ch": ch}))
        assert code == 0
        assert out.strip() == "1"
        code, out, err = run_cli(capsys, "euler", json.dumps({"variety": {"factors": [2]}, "ch": ch}))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "wrong variety" in err

    def test_kclass_that_is_not_an_object(self, capsys):
        assert run_cli(capsys, "euler", "[]") == (
            1, "", "error: K-class must be an object with 'variety', 'ch', got []\n")


class TestRing:
    def test_add(self, capsys):
        code, out, _ = run_cli(
            capsys, "ring", "add", CYCLE_H_ON_P1, CYCLE_H_ON_P1, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["terms"] == [{"exps": [1], "coeff": "2"}]

    def test_degree(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "degree", CYCLE_H_ON_P1)
        assert code == 0
        assert out.strip() == "1"

    @pytest.mark.parametrize("factor, coeff", [("-3/4", "-3/4"), ("-3", "-3"), ("-0.75", "-3/4")])
    def test_scale_by_a_negative_number(self, capsys, factor, coeff):
        """A negative factor is a value, not an option, with or without `--`."""
        for argv in (("ring", "scale", factor, CYCLE_H_ON_P1),
                     ("ring", "scale", "--", factor, CYCLE_H_ON_P1)):
            assert run_cli(capsys, *argv) == (0, f"{coeff}*h1  on P^1\n", "")
            code, out, err = run_cli(capsys, *argv[:2], "--format", "json", *argv[2:])
            assert (code, err) == (0, "")
            assert json.loads(out) == {"variety": {"factors": [1]},
                                       "terms": [{"exps": [1], "coeff": coeff}]}

    def test_unknown_option_is_still_refused(self, capsys):
        code, _, err = run_cli(capsys, "ring", "scale", "-x", CYCLE_H_ON_P1)
        assert code == 2 and "unrecognized arguments: -x" in err

    def test_wrong_operand_count(self, capsys):
        code, _, err = run_cli(capsys, "ring", "add", CYCLE_H_ON_P1)
        assert code == 1
        assert "operand" in err


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_malformed_json_reports_location(self, capsys):
        code, _, err = run_cli(capsys, "ring", "degree", "{not json}")
        assert code == 1
        assert "line 1 column" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "ring", "degree", "no/such/file.json")
        assert code == 1
        assert err == "error: no such input file: no/such/file.json\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("kind", ["directory", "empty-path", "not-utf8"])
    def test_unreadable_input_fails_cleanly(self, capsys, tmp_path, monkeypatch, kind, fmt):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inputs").mkdir()
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{}")
        path = {"directory": "inputs", "empty-path": "", "not-utf8": "bytes.json"}[kind]
        code, out, err = run_cli(capsys, "mu", path, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert repr(path) in err

    @pytest.mark.parametrize("argv", [
        ["sqrt-todd", "--variety", "[3000]"],
        ["identity-kernel", "--variety", "[9,9,9,9]"],
        ["tangent", "--variety", "[9,9,9,9,9,9]"],
        ["diagonal", "--variety", "[9,9,9,9]"],
        ["chern-character", "--variety", "[3000]", "--line-bundle", "[1]"],
    ])
    def test_over_budget_input_is_refused_up_front(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "over the budget" in err

    def test_tangent_past_the_series_order_runs(self, capsys):
        code, out, err = run_cli(capsys, "tangent", "--variety", "[257]")
        assert code == 0 and err == ""
        assert out.startswith("rank 257 bundle on P^257\nc = 1 + 258*h1 + ")

    def test_middle_variety_mismatch(self, capsys):
        other = json.dumps(
            {
                "source": {"factors": [2]},
                "target": {"factors": [1]},
                "cycle": {
                    "variety": {"factors": [2, 1]},
                    "terms": [{"exps": [0, 0], "coeff": "1"}],
                },
            }
        )
        code, _, err = run_cli(capsys, "compose", DIAGONAL_P1, other)
        assert code == 1
        assert "middle variety mismatch" in err

    def test_bool_rank_rejected(self, capsys):
        bundle = json.dumps(
            {
                "variety": {"factors": [1]},
                "rank": True,
                "total_chern": {"variety": {"factors": [1]}, "terms": [{"exps": [0], "coeff": "1"}]},
            }
        )
        code, _, err = run_cli(capsys, "todd", bundle)
        assert code == 1
        assert "rank must be an integer" in err

    @pytest.mark.parametrize("exps", [None, "ab", [[1]], [True]])
    def test_exps_must_be_a_list_of_integers(self, capsys, exps):
        bad = json.dumps(
            {"variety": {"factors": [2]}, "terms": [{"exps": exps, "coeff": "1"}]}
        )
        code, out, err = run_cli(capsys, "ring", "degree", bad)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "'exps' must be a list of integers" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("degrees", ['{"a": 1}', "[1.5]", "[true]", "[1, 2]"])
    def test_malformed_line_bundle_refused(self, capsys, degrees):
        """`chern.line_bundle` alone checks the `--line-bundle` degrees."""
        code, out, err = run_cli(capsys, "chern-character", "--variety", "[1]", "--line-bundle", degrees)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "degrees" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        # a JSON integer longer than Python's limit for decimal strings
        ["ring", "degree", '{"variety": {"factors": [1]}, "terms": [{"exps": [' + "9" * 5000
         + '], "coeff": "1"}]}'],
        # rational literals whose exponent would expand to millions of digits
        ["ring", "degree", json.dumps(
            {"variety": {"factors": [1]}, "terms": [{"exps": [1], "coeff": "1e4000000"}]})],
        ["ring", "scale", "1e-4000000", CYCLE_H_ON_P1],
        # nesting deeper than the JSON decoder's recursion limit
        ["ring", "degree", "[" * 100000 + "]" * 100000],
    ], ids=["long-integer", "coeff-exponent", "scale-exponent", "deep-nesting"])
    def test_oversized_input_fails_fast(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ["ring", "scale", "1e4300", CYCLE_H_ON_P1],
        ["ring", "degree", json.dumps(
            {"variety": {"factors": [1]}, "terms": [{"exps": [1], "coeff": "1e4300"}]})],
        # in-range operands whose product outgrows the limit
        ["ring", "intersect", *[json.dumps(
            {"variety": {"factors": [1]}, "terms": [{"exps": [0], "coeff": f"{s}e2200"}]})
            for s in ("1", "-3")]],
    ], ids=["scale", "degree", "product"])
    def test_oversized_result_fails_cleanly(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert f"{sys.get_int_max_str_digits()}-digit limit" in err

    def test_scale_argument_shares_the_coefficient_parser(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "scale", "1.5e-1", CYCLE_H_ON_P1, "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"] == [{"exps": [1], "coeff": "3/20"}]
        code, _, err = run_cli(capsys, "ring", "scale", "1/0", CYCLE_H_ON_P1)
        assert code == 1 and err.startswith("error: bad rational literal '1/0'")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oversized_samples_fail_fast(self, capsys, fmt):
        """A sample count above verify.MAX_SAMPLES is refused before any
        check runs; 10^9 samples would otherwise run for days."""
        from chowmot.verify import MAX_SAMPLES

        for samples in (MAX_SAMPLES + 1, 10**9):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "verify", "--samples", str(samples), "--format", fmt)
            assert time.perf_counter() - start < 1
            assert code == 1 and out == ""
            assert err == f"error: samples must be at most {MAX_SAMPLES}, got {samples}\n"

    def test_domain_error_names_precondition(self, capsys):
        bad = json.dumps(
            {"variety": {"factors": [1]}, "terms": [{"exps": [1, 1], "coeff": "1"}]}
        )
        code, _, err = run_cli(capsys, "ring", "degree", bad)
        assert code == 1
        assert "wrong length" in err


class TestPipelines:
    def test_compose_diagonal_is_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "compose", DIAGONAL_P1, DIAGONAL_P1, "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == json.loads(DIAGONAL_P1)

    def test_transpose_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "transpose", DIAGONAL_P1, "--format", "json")
        assert code == 0
        code, out2, _ = run_cli(capsys, "transpose", out, "--format", "json")
        assert code == 0
        assert json.loads(out2) == json.loads(DIAGONAL_P1)

    def test_diagonal_matches_motive_idempotent(self, capsys):
        _, diag, _ = run_cli(capsys, "diagonal", "--variety", "[1]", "--format", "json")
        _, motive, _ = run_cli(capsys, "motive", "--variety", "[1]", "--format", "json")
        assert json.loads(diag)["cycle"] == json.loads(motive)["idempotent"]

    def test_mu_of_identity_kernel_is_diagonal(self, capsys):
        _, kernel, _ = run_cli(capsys, "identity-kernel", "--variety", "[1]", "--format", "json")
        _, image, _ = run_cli(capsys, "mu", kernel, "--format", "json")
        assert json.loads(image) == json.loads(DIAGONAL_P1)

    def test_k_compose_identity(self, capsys):
        _, kernel, _ = run_cli(capsys, "identity-kernel", "--variety", "[1]", "--format", "json")
        _, composed, _ = run_cli(capsys, "k-compose", kernel, kernel, "--format", "json")
        assert json.loads(composed) == json.loads(kernel)

    def test_orlov_identity(self, capsys):
        _, kernel, _ = run_cli(capsys, "identity-kernel", "--variety", "[1]", "--format", "json")
        code, out, _ = run_cli(capsys, "orlov", kernel, kernel)
        assert code == 0
        assert "verdict: exact-isomorphism" in out

    def test_compat_true(self, capsys):
        _, kernel, _ = run_cli(capsys, "identity-kernel", "--variety", "[2]", "--format", "json")
        code, out, _ = run_cli(capsys, "compat", kernel, kernel)
        assert code == 0
        assert out.strip() == "true"

    def test_compat_detects_broken_composition(self, capsys, monkeypatch):
        def doubled(e, f):
            return KKernel.from_ch(e.source, f.target, k_compose(e, f).ch.scale(2))

        monkeypatch.setattr(motives, "k_compose", doubled)
        _, kernel, _ = run_cli(capsys, "identity-kernel", "--variety", "[2]", "--format", "json")
        code, out, _ = run_cli(capsys, "compat", kernel, kernel, "--format", "json")
        assert code == 1
        assert json.loads(out) == {"compatible": False}

    def test_compat_middle_mismatch(self, capsys):
        _, first, _ = run_cli(capsys, "identity-kernel", "--variety", "[1]", "--format", "json")
        _, second, _ = run_cli(capsys, "identity-kernel", "--variety", "[2]", "--format", "json")
        code, out, err = run_cli(capsys, "compat", first, second)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "middle variety mismatch" in err
        assert "Traceback" not in err

    def test_split_lefschetz(self, capsys):
        _, motive, _ = run_cli(capsys, "motive", "--variety", "[1]", "--format", "json")
        projector = json.dumps(
            {"variety": {"factors": [1, 1]}, "terms": [{"exps": [0, 1], "coeff": "1"}]}
        )
        code, out, _ = run_cli(capsys, "split", motive, projector, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["image"]["idempotent"]["terms"] == [{"exps": [0, 1], "coeff": "1"}]

    def test_orbit_compose_concentrated(self, capsys):
        point_class = {
            "variety": {"factors": [1, 1]},
            "terms": [{"exps": [1, 1], "coeff": "1"}],
        }
        unit_class = {
            "variety": {"factors": [1, 1]},
            "terms": [{"exps": [0, 0], "coeff": "1"}],
        }
        motive = json.loads(run_cli(capsys, "motive", "--variety", "[1]", "--format", "json")[1])
        corr = lambda cycle: {
            "source": {"factors": [1]},
            "target": {"factors": [1]},
            "cycle": cycle,
        }
        f = json.dumps({"source": motive, "target": motive, "components": {"1": corr(point_class)}})
        g = json.dumps({"source": motive, "target": motive, "components": {"-1": corr(unit_class)}})
        code, out, _ = run_cli(capsys, "orbit-compose", f, g, "--format", "json")
        assert code == 0
        assert list(json.loads(out)["components"]) == ["0"]

    @pytest.mark.parametrize("key", ["01", " 1", "1_0"])
    def test_orbit_compose_rejects_non_canonical_offset_keys(self, capsys, key):
        # each key parses with int(); the twist makes the point class a valid
        # component at that offset, so only the key's spelling is wrong
        point = {
            "source": {"factors": [1]},
            "target": {"factors": [1]},
            "cycle": {"variety": {"factors": [1, 1]}, "terms": [{"exps": [1, 1], "coeff": "1"}]},
        }
        motive = json.loads(run_cli(capsys, "motive", "--variety", "[1]", "--format", "json")[1])
        source = dict(motive, twist=int(key) - 1)
        f = json.dumps({"source": source, "target": motive, "components": {key: point}})
        g = json.dumps({"source": motive, "target": motive, "components": {"0": json.loads(DIAGONAL_P1)}})
        code, out, err = run_cli(capsys, "orbit-compose", f, g)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_sqrt_todd_text(self, capsys):
        code, out, _ = run_cli(capsys, "sqrt-todd", "--variety", "[1]")
        assert code == 0
        assert "1/2*h1" in out

    def test_chern_character_shorthand(self, capsys):
        code, out, _ = run_cli(
            capsys, "chern-character", "--variety", "[1]", "--line-bundle", "[1]",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"exps": [0], "coeff": "1"},
            {"exps": [1], "coeff": "1"},
        ]

    def test_todd_of_tangent_bundle(self, capsys):
        _, tangent, _ = run_cli(capsys, "tangent", "--variety", "[1]", "--format", "json")
        code, out, _ = run_cli(capsys, "todd", tangent, "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"exps": [0], "coeff": "1"},
            {"exps": [1], "coeff": "1"},
        ]


GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_seed42.txt"
GOLDEN_VERIFY_JSON = Path(__file__).parent / "golden" / "verify_seed42.json"


@pytest.fixture(scope="module")
def verify_seed42():
    """One `verify --seed 42` run in text format, shared by the tests below."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--seed", "42"])
    return code, out.getvalue()


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, verify_seed42):
        code, out = verify_seed42
        assert code == 0
        assert "FAIL" not in out
        # the golden file was written by a separate run: equal bytes mean
        # the output is deterministic and unchanged
        assert out == GOLDEN_VERIFY.read_text()

    def test_json_format(self, capsys, verify_seed42):
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--samples", "200", "--format", "json")
        assert code == 0
        assert out == GOLDEN_VERIFY_JSON.read_text()
        results = json.loads(out)
        assert len(results) == 9
        assert all(r["passed"] for r in results)
        rows = [line.split(None, 2) for line in verify_seed42[1].splitlines()[2:]]
        assert rows == [[r["name"], "PASS", r["detail"]] for r in results]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_timings_go_to_stderr_only(self, capsys, fmt):
        from chowmot import verify

        code, out, err = run_cli(capsys, "verify", "--seed", "42", "--timings", "--format", fmt)
        assert code == 0
        assert out == (GOLDEN_VERIFY if fmt == "text" else GOLDEN_VERIFY_JSON).read_text()
        rows = [line.split("  ") for line in err.splitlines()]
        assert [name for name, _ in rows] == [name for name, _ in verify.CHECKS]
        for _, seconds in rows:
            value, unit = seconds.split(" ")
            assert unit == "s" and float(value) >= 0
            assert len(value.partition(".")[2]) == 4  # to 0.1 ms

    def test_raising_check_is_a_fail_row(self, capsys, monkeypatch):
        from chowmot import verify

        def boom(rng, samples):
            raise RuntimeError("boom")

        names = [name for name, _ in verify.CHECKS]
        checks = list(verify.CHECKS)
        checks[2] = (names[2], boom)
        monkeypatch.setattr(verify, "CHECKS", checks)
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--samples", "0")
        assert code == 1
        rows = [line.split(None, 2) for line in out.splitlines()[2:]]
        assert [r[0] for r in rows] == names
        assert rows[2][1:] == ["FAIL", "raised RuntimeError: boom"]
        assert all(r[1] == "PASS" for i, r in enumerate(rows) if i != 2)

    def test_negative_samples_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--samples", "-5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "samples" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("samples", [300.0, True, "200"])
    def test_non_integer_samples_rejected(self, samples):
        """A float or bool sample count would reach the checks: 300.0 makes
        three of them raise, and True runs them as if it were 1."""
        with pytest.raises(InvalidInputError, match="samples must be an integer"):
            run_checks(42, samples)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chowmot", "euler", "--variety", "[2]", "--line-bundle", "[3]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "10"

    def test_reader_closing_early_is_quiet(self):
        with subprocess.Popen(
            [sys.executable, "-m", "chowmot", "sqrt-todd", "--variety", "[2,2]",
             "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err


TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.json"


class TestTranscript:
    def test_every_recorded_call_replays_byte_identical(self, monkeypatch):
        """`golden/cli_transcript.json` holds the argv, exit code, stdout and
        stderr of help, usage errors, input errors, and text and JSON output
        of every subcommand, recorded in-process with COLUMNS=80."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        cases = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
        assert len(cases) > 100
        assert [case["argv"] for case in cases if not replays(case)] == []

    def test_text_output_reads_no_terms_view(self, monkeypatch):
        """`str(cycle)`, `to_json` and `coefficient` read the packed fields,
        not the `Cycle.terms` view: with that view made to raise, every
        recorded call but `verify` replays byte for byte, and every check of
        `verify` passes."""
        def refused(self):
            raise AssertionError("Cycle.terms read")

        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(Cycle, "terms", property(refused))
        cases = [case for case in json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
                 if case["argv"][:1] != ["verify"]]
        assert len(cases) > 100
        assert [case["argv"] for case in cases if not replays(case)] == []
        failed = [result.name for result in run_checks(42, 200) if not result.passed]
        assert failed == []

    @pytest.mark.parametrize("form, writer", [("json", "__str__"), ("text", "to_json")])
    def test_only_the_requested_form_is_built(self, monkeypatch, form, writer):
        """With `Cycle`'s writer of the other form made to raise, every
        recorded call that prints a result in `form` replays byte for byte."""
        def refused(self, *args):
            raise AssertionError(f"Cycle.{writer} called for --format {form}")

        monkeypatch.setattr(Cycle, writer, refused)
        cases = [case for case in json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
                 if case["code"] == 0 and not case["stdout"].startswith("usage:")
                 and output_format(case["argv"]) == form]
        assert len(cases) >= 50
        for case in cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(case["argv"]))
            assert [code, out.getvalue(), err.getvalue()] == [0, case["stdout"], case["stderr"]], case["argv"]



# operands of the generated calls by destination; any other is a file name
OPERANDS = {"operation": ["scale"], "operands": ["-3/4", CYCLE_H_ON_P1]}
FLAG_VALUES = {"--variety": "[1, 1]", "--line-bundle": "[2]", "--seed": "7", "--samples": "3", "--format": "json"}


def table_vars(argv: list[str]) -> dict | None:
    """The table's namespace for `argv` as a dict, or None if it hands over."""
    try:
        return vars(cli._read_table(argv))
    except cli._Undecided:
        return None


def argparse_vars(parser, argv: list[str]) -> dict | None:
    """argparse's namespace for `argv` as a dict, or None when it refuses
    `argv` or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def plain(row, argv: list[str]) -> bool:
    """Whether every token of `argv` that starts with "-" is one of the
    row's flags or a negative number: no help, `--`, `--flag=value` or
    abbreviation."""
    flags = {name for names, _ in cli._grammar(row) for name in names if name.startswith("-")}
    return all(a in flags or re.fullmatch(r"-\d+(/\d+)?|-\d*\.\d+", a) for a in argv[1:] if a.startswith("-"))


def generated_calls(row) -> list[list[str]]:
    """Calls of `row`: every subset of its flags and operands in every order;
    then, on the full call in table order and reversed, each token inserted
    at every place (`-h`, `--help`, `--`, an extra operand, an unknown flag,
    a repeated `--format`), each flag as `--flag=value`, abbreviated, given
    a bad value or left without one, and each operand replaced."""
    items = []
    for names, options in cli._grammar(row):
        name = names[0]
        if not name.startswith("-"):
            items += [[value] for value in OPERANDS.get(name, [f"{name}.json"])]
        elif options.get("action") == "store_true":
            items.append([name])
        else:
            items.append([name, FLAG_VALUES[name]])
    calls = [[row.name, *(a for item in order for a in item)]
             for k in range(len(items) + 1) for subset in itertools.combinations(items, k)
             for order in itertools.permutations(subset)]
    for order in (items, items[::-1]):
        full = [a for item in order for a in item]
        for i in range(len(full) + 1):
            for extra in (["-h"], ["--help"], ["--"], ["extra.json"], ["--no-such-flag"], ["--format", "text"]):
                calls.append([row.name, *full[:i], *extra, *full[i:]])
        for i, item in enumerate(order):
            before, after = [a for it in order[:i] for a in it], [a for it in order[i + 1:] for a in it]
            if item[0].startswith("--"):
                name = item[0]
                variants = [[name[:4]] + item[1:], [name, "x"], [name, "1.5"], [name, "xml"], [name, "--format"]]
                if len(item) == 2:
                    variants.append([f"{name}={item[1]}"])
                calls += [[row.name, *before, *v, *after] for v in variants]
                calls.append([row.name, *before, *after, name])
            else:
                calls += [[row.name, *before, v, *after] for v in ("-3", "-0.75", "-x", "frobnicate", "")]
    return calls


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


class TestTableParser:
    """`main` reads a plain call from the command table and hands every
    other call to argparse: on each call the table either hands over or
    builds the namespace argparse builds, and it never accepts a call
    argparse refuses."""

    @pytest.mark.parametrize("row", cli.COMMANDS, ids=lambda row: row.name)
    def test_agrees_with_argparse_on_generated_calls(self, parser, row):
        calls = generated_calls(row)
        assert len(calls) > 50
        for argv in calls:
            table, expected = table_vars(argv), argparse_vars(parser, argv)
            assert table is None or table == expected, argv
            if plain(row, argv):  # the table decides every plain call argparse accepts
                assert (table is None) == (expected is None), argv

    def test_agrees_with_argparse_on_the_transcript(self, parser):
        """The table decides every recorded call but the help and usage
        errors, whose bytes argparse prints."""
        cases = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
        for case in cases:
            table = table_vars(case["argv"])
            assert table is None or table == argparse_vars(parser, case["argv"]), case["argv"]
            assert (table is None) == (case["code"] == 2 or case["stdout"].startswith("usage:")), case["argv"]
        assert sum(table_vars(case["argv"]) is None for case in cases) == 39

    @pytest.mark.parametrize("argv", [
        ["sqrt-todd", "--variety", "[3, 3, 3, 3]", "--format", "json"],
        ["identity-kernel", "--variety", "[3, 3]", "--format", "json"],
        ["k-compose", "kernel_2-2_d3.json", "kernel_2-2_d-3.json", "--format", "json"],
        ["orlov", "kernel_2-2_d3.json", "kernel_2-2_d-3.json", "--format", "json"],
        ["verify", "--seed", "17", "--samples", "200", "--format", "json"],
    ], ids=lambda argv: argv[0])
    def test_decides_every_benchmark_call(self, parser, argv):
        table = table_vars(argv)
        assert table is not None and table == argparse_vars(parser, argv)


def replays(case: dict) -> bool:
    """Whether a recorded call gives its recorded exit code, stdout and
    stderr when run in-process again."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    # argparse before Python 3.11 heads the option list differently
    got = [code, *(s.getvalue().replace("\noptional arguments:\n", "\noptions:\n") for s in (out, err))]
    want = [case["code"], case["stdout"], case["stderr"]]
    if sys.version_info >= (3, 13):  # which wraps long usage lines at other words
        got, want = ([code, *map(unwrapped_usage, texts)] for code, *texts in (got, want))
    return got == want


def output_format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def unwrapped_usage(text: str) -> str:
    """`text` with the lines of its usage block joined by single spaces."""
    return re.sub(r"^usage:.*(?:\n +\S.*)*", lambda m: " ".join(m.group().split()), text, flags=re.M)
