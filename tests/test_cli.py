import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinetoeplitz
from affinetoeplitz import bostconnes, states
from affinetoeplitz.cli import _build_parser, run
from affinetoeplitz.numtheory import first_primes

# 1000 units mod 2 * 10^6: past the table-size guard, far short of phi = 800000
LONG_CHARACTER = json.dumps(
    {"modulus": 2 * 10**6, "values": {str(u): 0 for u in [u for u in range(1, 5000, 2) if u % 5][:1000]}}
)

# the list defaults of the parser, read back through a parse of the shortest valid argv
LIST_DEFAULTS = [
    (["kms-check", "--state", "psi_beta"], "mults", [1, 2, 3, 4, 6]),
    (["ground-check"], "mults", [1, 2, 3, 4, 6]),
    (["rep-check", "--model", "x"], "primes", [2, 3, 5]),
    (["bc", "--mode", "euler"], "primes", [3, 5, 7]),
]


A_POINT = json.dumps({"kind": "A", "k": 4, "N": {"factors": {"2": 2}, "default": 0}})


def run_capture(capsys, argv):
    """Run argv twice in this process: the reused parser must answer the same both times
    and keep its list defaults."""
    results = []
    for _ in range(2):
        code = run(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[1] == results[0]
    for minimal, dest, default in LIST_DEFAULTS:
        assert getattr(_build_parser().parse_args(minimal), dest) == default
    return results[0]


def _fresh_env():
    """The environment of a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(affinetoeplitz.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fresh_interpreter(probe, timeout=None):
    """The stdout of `probe` run in a new interpreter that imports this package."""
    argv = [sys.executable, "-c", probe]
    return subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True, check=True, timeout=timeout).stdout


def cli_process(argv, timeout):
    """(exit code, stdout, stderr) of the CLI on `argv` in a new interpreter, under a timeout."""
    argv = [sys.executable, "-m", "affinetoeplitz.cli", *argv]
    done = subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def test_import_builds_no_parser():
    probe = "import affinetoeplitz.cli as cli; print(cli._build_parser.cache_info().currsize)"
    assert fresh_interpreter(probe) == "0\n"


# every subcommand but rep-check, the one that sweeps arrays
SCALAR_ARGV = [
    ["euclid", "17", "31", "5"],
    ["kms-check", "--state", "psi_beta", "--beta", "2", "--grid", "1"],
    ["join", "1", "1", "0", "2"],
    ["reduce", "v2 s"],
    ["state-eval", "--state", "psi_beta", "--beta", "2", "--word", "s v2 v2* s*"],
    ["ground-check", "--vector", "1"],
    ["measure", "--beta", "2", "0", "6"],
    ["reconstruct", "--state", "psi_beta_mu", "--beta", "3", "--primes", "2,3"],
    ["bc", "--mode", "euler"],
    ["spectrum", "--point", '{"kind":"A","k":1,"N":{"factors":{}}}', "--contains", "0", "1"],
]


def test_scalar_commands_load_no_numpy():
    array_argv = [["rep-check", "--model", "x"]]
    probe = (
        "import contextlib, io, sys, affinetoeplitz, affinetoeplitz.cli as cli\n"
        "def codes(argvs):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return [cli.run(argv) for argv in argvs]\n"
        f"print(codes({SCALAR_ARGV!r}), 'numpy' in sys.modules)\n"
        f"print(codes({array_argv!r}), 'numpy' in sys.modules)\n"
    )
    assert fresh_interpreter(probe) == f"{[0] * len(SCALAR_ARGV)} False\n[0] True\n"


class TestReduce:
    def test_zero_word(self, capsys):
        code, out, _ = run_capture(capsys, ["reduce", "v2* s v2"])
        assert code == 0
        assert json.loads(out) == {"kind": "zero", "precision": 12}

    def test_normal_form(self, capsys):
        code, out, _ = run_capture(capsys, ["reduce", "v2 s"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "mono"
        assert (payload["m"], payload["a"], payload["b"], payload["n"]) == (2, 2, 1, 0)

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_capture(capsys, ["reduce", "v2 x"])
        assert code == 2
        assert out == ""
        assert "position" in err

    def test_digit_run_past_int_limit_exit_2(self, capsys):
        for word, position in (("v" + "7" * 4301, 1), ("s^" + "9" * 4301, 2)):
            code, out, err = run_capture(capsys, ["reduce", word])
            assert (code, out) == (2, "")
            assert f"4301 digits is too long to read (at position {position})" in err

    def test_non_ascii_digits_exit_2(self, capsys):
        code, out, err = run_capture(capsys, ["reduce", "v\u0663 s^\u0662"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_term_past_the_index_bits_exit_2(self):
        # each junction of two 2^20-bit terms inverts one index modulo the other, for about 28 s:
        # the parser refuses the first term past 2^16 bits before any is built
        code, out, err = cli_process(["reduce", "v2^524288* s^5 v3^524279"], timeout=10)
        assert (code, out, err) == (2, "", "error: v2^524288 builds an index past 65536 bits (at position 0)\n")
        # 2^16 bits is past every printable result: a word at the bound is reduced, then refused at the digit limit
        code, out, err = cli_process(["reduce", "v2^32768* s^5 v3^32767"], timeout=10)
        assert (code, out) == (2, "") and err.startswith("error: a result has 15634 digits, past the ")

    def test_v_index_zero_exit_2(self, capsys):
        assert run_capture(capsys, ["reduce", "s v0"]) == (2, "", "error: v-index must be >= 1 (at position 2)\n")

    def test_composite_needs_flag(self, capsys):
        code, _, err = run_capture(capsys, ["reduce", "v6"])
        assert code == 2
        code, out, _ = run_capture(capsys, ["reduce", "--expand-composite", "v6"])
        assert code == 0
        assert json.loads(out)["a"] == 6


class TestJoinEuclid:
    def test_join(self, capsys):
        code, out, _ = run_capture(capsys, ["join", "0", "2", "1", "3"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["l"], payload["lcm"]) == (4, 6)

    def test_join_infinite(self, capsys):
        code, out, _ = run_capture(capsys, ["join", "0", "2", "1", "2"])
        assert code == 0
        assert json.loads(out)["infinite"] is True

    def test_euclid(self, capsys):
        code, out, _ = run_capture(capsys, ["euclid", "3", "5", "1"])
        assert code == 0
        assert json.loads(out) == {"alpha": 2, "beta": 1, "precision": 12}

    def test_euclid_coprime_cores_near_1e12(self):
        # a subprocess under a timeout: the alternating scheme would run about 10^12 rounds
        probe = "import affinetoeplitz.cli as cli; cli.run(['euclid', '1000000000000', '1000000000001', '5'])"
        out = fresh_interpreter(probe, timeout=10)
        assert json.loads(out) == {"alpha": 999999999996, "beta": 999999999995, "precision": 12}


class TestStateCommands:
    def test_state_eval(self, capsys):
        code, out, _ = run_capture(
            capsys, ["state-eval", "--state", "psi_beta", "--beta", "2", "--word", "s v3 v3* s*"]
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["value"]["re"]) == pytest.approx(1 / 9)

    def test_state_eval_json_state(self, capsys):
        state = json.dumps({"variant": "ground", "omega": {"evaluation": "1/4"}})
        code, out, _ = run_capture(capsys, ["state-eval", "--state", state, "--word", "s"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["value"]["im"]) == pytest.approx(1.0)

    def test_kms_check_passes(self, capsys):
        code, out, _ = run_capture(
            capsys, ["kms-check", "--state", "psi_beta", "--beta", "1.5", "--grid", "1"]
        )
        assert code == 0
        assert float(json.loads(out)["max_defect"]) < 1e-9

    def test_ground_check(self, capsys):
        code, out, _ = run_capture(capsys, ["ground-check", "--vector", "0", "--grid", "1"])
        assert code == 0

    def test_repeated_mults_count_once(self, capsys):
        # --grid 1 --mults 1,1: 4 monomials, 16 pairs, not 64 and 256
        code, out, _ = run_capture(capsys, ["kms-check", "--state", "psi_beta", "--beta", "2", "--grid", "1",
                                            "--mults", "1,1"])
        assert code == 0 and json.loads(out)["pairs"] == 16
        for mults in ("1,2,2,1", "2,1"):
            code, out, _ = run_capture(capsys, ["ground-check", "--vector", "0", "--grid", "1", "--mults", mults])
            assert code == 0 and json.loads(out)["checked"] == 12
        # the witness of a failing grid is the one its duplicate-free list gives
        outs = []
        for mults in ("1,2,1,2,3", "1,2,3"):
            code, out, _ = run_capture(capsys, ["kms-check", "--state", "psi_beta", "--beta", "2", "--at-beta", "1.5",
                                                "--grid", "1", "--mults", mults])
            assert code == 1
            outs.append(json.loads(out))
        assert outs[0] == outs[1] and outs[0]["pairs"] == 36**2
        state = '{"variant":"psi_beta","beta":1.5}'
        outs = [run_capture(capsys, ["ground-check", "--state", state, "--grid", "1", "--mults", mults])
                for mults in ("3,2,3,1", "3,2,1")]
        assert outs[0] == outs[1] and outs[0][0] == 1

    def test_kms_check_precision(self, capsys):
        code, out, _ = run_capture(
            capsys, ["kms-check", "--state", "psi_beta", "--beta", "2", "--grid", "1", "--precision", "10"]
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == "9.765625000000e-04"

    def test_kms_check_characterisation_counterexample(self, capsys):
        # the vector state at e_0 gives s s* the value 0, where a KMS_2 state gives 1
        state = json.dumps({"variant": "ground", "omega": {"vector": 0}})
        code, out, _ = run_capture(capsys, ["kms-check", "--state", state, "--at-beta", "2", "--grid", "1"])
        assert code == 1
        assert json.loads(out)["counterexample"] == {
            "kind": "characterisation",
            "x": {"a": 1, "b": 1, "kind": "mono", "m": 1, "n": 1},
        }

    def test_kms_check_fails_at_wrong_temperature(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["kms-check", "--state", "psi_beta", "--beta", "2", "--at-beta", "1.5", "--grid", "1"],
        )
        assert code == 1
        assert "counterexample" in json.loads(out)

    def test_ground_check_rejects_equilibrium_state(self, capsys):
        code, out, _ = run_capture(
            capsys, ["ground-check", "--state", '{"variant":"psi_beta","beta":1.5}', "--grid", "1"]
        )
        assert code == 1
        assert json.loads(out)["counterexample"]["a"] == 2

    def test_measure(self, capsys):
        code, out, _ = run_capture(capsys, ["measure", "--beta", "2", "0", "2"])
        assert code == 0
        assert float(json.loads(out)["closed_form"]) == pytest.approx(0.25)

    def test_measure_wrong_series_exit_1(self, capsys, monkeypatch):
        # a series off its closed form by more than tail and tolerance is a counterexample: the payload shows both
        monkeypatch.setattr(states, "measure_cylinder", lambda beta, m, a: (0.5, 0.0))
        code, out, err = run_capture(capsys, ["measure", "--beta", "2", "0", "6"])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"closed_form": "2.777777777778e-02", "precision": 12,
                                   "series": "5.000000000000e-01", "tail": "0.000000000000e+00"}

    @pytest.mark.parametrize("a", ["2", "12"])
    def test_measure_underflowing_ratio(self, capsys, a):
        # 2^-1999 is below the least double: every series term is 0, like a^-beta
        code, out, err = run_capture(capsys, ["measure", "--beta", "2000", "0", a])
        assert code == 0, err
        payload = json.loads(out)
        assert [float(payload[key]) for key in ("series", "tail", "closed_form")] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "argv, path, want",
        [
            (["state-eval", "--state", "psi_beta", "--beta", "2", "--word", "v2^1100 v2^1100*"], ("value", "re"), 0.0),
            # psi_{3,delta_0}(s^k) = sum_{d | k} d^-2 / zeta(2): k = 2^1100 gives (4/3) / zeta(2) = 8/pi^2
            (["state-eval", "--state", "psi_beta_mu", "--beta", "3", "--word", f"s^{2**1100}"], ("value", "re"),
             8 / math.pi**2),
            (["measure", "--beta", "2", "0", str(2**1100)], ("closed_form",), 0.0),
            # a = 2^1100 leaves psi_{3,delta_0} below a^-3, under every double
            (["state-eval", "--state", "psi_beta_mu", "--beta", "3", "--monomial",
              json.dumps({"kind": "mono", "m": 2**1100, "a": 2**1100, "b": 2**1100, "n": 0})], ("value", "re"), 0.0),
        ],
    )
    def test_indices_beyond_doubles(self, capsys, argv, path, want):
        code, out, err = run_capture(capsys, argv)
        assert code == 0, err
        got = json.loads(out)
        for key in path:
            got = got[key]
        assert float(got) == pytest.approx(want, abs=1e-12)

    def test_lebesgue_semiprime_shift(self, capsys):
        # (10^20 + 39)(10^21 + 117) is never factored: every Lebesgue term vanishes
        argv = ["state-eval", "--state", "psi_beta_mu", "--beta", "3", "--mu", '{"lebesgue":true}',
                "--word", "s^100000000000000000050700000000000000004563"]
        code, out, err = run_capture(capsys, argv)
        assert code == 0, err
        value = json.loads(out)["value"]
        assert float(value["re"]) == 0.0 and float(value["im"]) == 0.0

    def test_point_measure_semiprime_shift_exit_2(self):
        # (10^20 + 39)(10^21 + 117): a point measure needs the divisors, and rho would need
        # about 10^10 steps, so factoring stops at its step budget and the CLI exits 2
        argv = ["state-eval", "--state", "psi_beta_mu", "--beta", "3",
                "--word", "s^100000000000000000050700000000000000004563"]
        probe = (
            "import contextlib, io, affinetoeplitz.cli as cli\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            f"    code = cli.run({argv!r})\n"
            "print(code, repr(out.getvalue()), repr(err.getvalue()))\n"
        )
        code, out, err = fresh_interpreter(probe, timeout=60).split(" ", 2)
        assert (code, out) == ("2", "''")
        assert err.startswith("'error: no factor of a 137-bit cofactor") and err.count("\\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ground-check", "--state", '{"variant":"ground","omega":{}}'],
             "error: omega needs a 'vector', 'evaluation' or 'mu' field\n"),
            (["state-eval", "--state", "psi_beta_mu", "--beta", "3", "--mu", '{"lebesgue": false}', "--word", "s"],
             "error: missing field 'atoms'\n"),
            (["state-eval", "--state", '{"variant":"ground","omega":{"evaluation":1.1400058588937053e+219}}',
              "--word", "s^2"],
             "error: angle ~1.14001e+219 outside [0, 1)\n"),
            (["state-eval", "--state", '{"variant":"ground","omega":{"evaluation":1}}', "--word", "s^2"],
             "error: angle 1 outside [0, 1)\n"),
        ],
    )
    def test_bad_state_messages(self, capsys, argv, message):
        # one short line that names the fault: a missing field, or an angle in brief
        code, out, err = run_capture(capsys, argv)
        assert (code, out, err) == (2, "", message)
        assert err.count("\n") == 1 and len(err) < 60

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_payload_past_the_digit_limit_exit_2(self, capsys, fmt):
        # 2^20000 has 6021 digits, past the interpreter's int-to-str limit (4300 by default):
        # one short line that names both counts, not the interpreter's own advice
        limit = sys.get_int_max_str_digits()
        message = f"error: a result has 6021 digits, past the {limit}-digit limit on printed integers\n"
        for argv in (["reduce", "v2^20000"], ["state-eval", "--state", "psi_beta", "--beta", "2", "--word", "v2^20000"]):
            assert run_capture(capsys, ["--format", fmt, *argv]) == (2, "", message), argv
        assert sys.get_int_max_str_digits() == limit

    def test_reconstruct(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["reconstruct", "--state", "psi_beta_mu", "--beta", "3", "--primes", "2,3,5", "--n", "12"],
        )
        assert code == 0
        assert float(json.loads(out)["max_defect"]) < 1e-9


class TestSuiteCommands:
    def test_rep_check(self, capsys):
        code, out, _ = run_capture(capsys, ["rep-check", "--model", "x", "--primes", "2,3", "--window", "8"])
        assert code == 0
        report = json.loads(out)
        assert all(entry["pass"] for entry in report["relations"].values())

    def test_rep_check_index_one(self, capsys):
        code, out, _ = run_capture(capsys, ["rep-check", "--model", "x", "--primes", "1", "--window", "4"])
        assert code == 0
        assert json.loads(out)["relations"]["T4[p=1]"] == {"pass": True}

    def test_rep_check_repeated_index_counts_once(self, capsys):
        # T3 is stated for p != q: a repeated index gives the report of the index once, not a T3[p=2,q=2] failure
        once = run_capture(capsys, ["rep-check", "--model", "x", "--primes", "2", "--window", "3"])
        assert once[0] == 0
        assert run_capture(capsys, ["rep-check", "--model", "x", "--primes", "2,2", "--window", "3"]) == once

    def test_rep_check_empty_window_exit_2(self, capsys):
        code, out, err = run_capture(capsys, ["rep-check", "--model", "x", "--window", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_rep_check_index_past_the_cap_exit_2(self):
        # T5 alone would run 10^9 words toward a report of 10^9 entries: refused before the first
        code, out, err = cli_process(["rep-check", "--model", "x", "--primes", "1000000007", "--window", "3"], timeout=10)
        assert (code, out) == (2, "")
        assert err == "error: generator index 1000000007 is past 65536, the largest a relation check takes\n"

    def test_bc_euler(self, capsys):
        code, out, _ = run_capture(
            capsys, ["bc", "--mode", "euler", "--primes", "3,5", "--beta", "1", "--truncation", "2000"]
        )
        assert code == 0

    def test_bc_reconstruct(self, capsys):
        code, out, _ = run_capture(capsys, ["bc", "--mode", "reconstruct", "--beta", "2", "--k", "6", "--primes", "2,3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 6
        assert float(payload["defect"]) <= float(payload["tolerance"])
        assert sorted(payload) == ["defect", "k", "precision", "tail_bound", "tolerance"]
        assert float(payload["tail_bound"]) < 1e-15

    def test_bc_reconstruct_passes_within_the_tail_bound(self, capsys):
        # 10^5 smooth n leave a weight share of 6.9e-9 unsummed, past the 2^-30 tolerance
        argv = ["bc", "--mode", "reconstruct", "--primes", "2,3,5,7,11,13", "--beta", "1.01", "--k", "2"]
        code, out, _ = run_capture(capsys, argv)
        payload = json.loads(out)
        assert code == 0
        assert float(payload["tolerance"]) < float(payload["defect"]) <= float(payload["tail_bound"])

    def test_bc_reconstruct_window_past_the_term_budget_exit_2(self):
        # the first 26 odd primes have 2^26 subsets, about 14 GB as lists: refused before any is built
        primes = ",".join(map(str, first_primes(27)[1:]))
        code, out, err = cli_process(["bc", "--mode", "reconstruct", "--primes", primes, "--beta", "2", "--k", "6"], timeout=10)
        assert (code, out) == (2, "")
        assert err == "error: 67108864 subsets of 26 primes pass the 262144-term budget\n"

    def test_bc_reconstruct_k_past_the_term_budget_exit_2(self, capsys, monkeypatch):
        # k = 45 over {3, 5} meets six k' = 45 / gcd(45, n), four subset terms each: 24 terms in all
        argv = ["bc", "--mode", "reconstruct", "--primes", "3,5", "--beta", "2", "--k", "45"]
        want = run_capture(capsys, argv)
        assert want[0] == 0
        monkeypatch.setattr(bostconnes, "_RECONSTRUCT_SUBSET_TERMS", 24)
        assert run_capture(capsys, argv) == want
        monkeypatch.setattr(bostconnes, "_RECONSTRUCT_SUBSET_TERMS", 23)
        message = "error: k = 45 passes the 23-term budget at 4 terms per k / gcd(k, n)\n"
        assert run_capture(capsys, argv) == (2, "", message)

    def test_bc_invariance(self, capsys):
        code, out, _ = run_capture(capsys, ["bc", "--mode", "invariance", "--beta", "1", "--kmax", "5"])
        assert code == 0
        assert len(json.loads(out)["ratios"]) == 5

    def test_spectrum_contains(self, capsys):
        point = json.dumps({"kind": "A", "k": 4, "N": {"factors": {"2": 2, "3": 1}, "default": 0}})
        code, out, _ = run_capture(capsys, ["spectrum", "--point", point, "--contains", "0", "2"])
        assert code == 0
        assert json.loads(out)["contains"] is True

    def test_spectrum_verify(self, capsys):
        point = json.dumps({"kind": "B", "generator": 1, "N": {"factors": {}, "default": "inf"}})
        code, out, _ = run_capture(capsys, ["spectrum", "--point", point, "--bound", "8"])
        assert code == 0

    def test_spectrum_act_and_decompose(self, capsys):
        point = json.dumps({"kind": "B", "generator": 0, "N": {"factors": {}, "default": "inf"}})
        code, out, _ = run_capture(capsys, ["spectrum", "--point", point, "--act", "1", "2"])
        assert code == 0
        assert json.loads(out)["generator"] == 1
        finite = json.dumps(
            {"kind": "B", "generator": 7, "level": 12, "N": {"factors": {"2": 2, "3": 1}, "default": 0}}
        )
        code, out, _ = run_capture(capsys, ["spectrum", "--point", finite, "--decompose"])
        assert code == 0
        assert json.loads(out)["2"] == {"value": 3, "level": 4}

    @pytest.mark.parametrize("factors, default", [({"2": 1}, 0), ({"2": "inf"}, 0), ({"3": 2}, "inf")])
    def test_spectrum_act_off_the_boundary_exit_2(self, capsys, factors, default):
        # B(1, 2) goes to B(3, 6) under (0, 3), not B(3, 2): the action is defined only where N has every exponent infinite
        point = json.dumps({"kind": "B", "generator": 1, "N": {"factors": factors, "default": default}})
        message = "error: the action applies to boundary points, whose N has every exponent infinite\n"
        assert run_capture(capsys, ["spectrum", "--point", point, "--act", "0", "3"]) == (2, "", message)

    def test_spectrum_level_zero_exit_2(self, capsys):
        point = json.dumps({"kind": "B", "generator": 1, "N": {"factors": {"2": 2}, "default": 0}, "level": 0})
        code, out, err = run_capture(capsys, ["spectrum", "--point", point, "--contains", "0", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, want_code, want_out, want_err",
        [
            (["ground-check"], 2, "", "error: pass --vector, --evaluation or --state\n"),
            (["spectrum", "--point", A_POINT, "--decompose"], 2, "", "error: decompose applies to B-points\n"),
            (["spectrum", "--point", A_POINT, "--act", "1", "2"], 2, "", "error: the action applies to B-points\n"),
            # the CSV walk over a list
            (
                ["--format", "csv", "bc", "--mode", "invariance", "--kmax", "2"],
                0,
                "precision,12\nratios[0],5.000000000000e-01\nratios[1],5.000000000000e-01\n",
                "",
            ),
            # numpy refuses a 364 TiB window at once: past a 47-bit address space, it is never mapped
            (["rep-check", "--model", "x", "--primes", "2", "--window", "10000000"], 2, "", "error: Unable to allocate"),
            # a level only sets the decomposition's depth: alone, or with another mode, it is refused
            (["spectrum", "--point", A_POINT, "--level", "0", "--bound", "5"], 2, "", "error: --level needs --decompose\n"),
            (["spectrum", "--point", A_POINT, "--contains", "0", "2", "--level", "3"], 2, "", "error: --level needs --decompose\n"),
            # a window of about 10^18 elements is refused before it is built
            (["spectrum", "--point", A_POINT, "--bound", "1000000000"], 2, "", "error: bound must be <= 1024, got 1000000000\n"),
        ],
    )
    def test_error_and_format_branches(self, capsys, argv, want_code, want_out, want_err):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (want_code, want_out)
        assert err.startswith(want_err) and err.count("\n") == (1 if want_err else 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bc", "--mode", "euler", "--truncation", "0"],
            ["bc", "--mode", "euler", "--truncation", "-5"],
            ["reconstruct", "--state", "psi_beta_mu", "--beta", "3", "--primes", "2,3", "--n", "-1"],
            ["kms-check", "--state", "psi_beta", "--beta", "1.5", "--grid", "-1"],
            ["kms-check", "--state", "psi_beta", "--beta", "1.5", "--mults", ""],
            ["ground-check", "--vector", "0", "--grid", "-1"],
            ["ground-check", "--vector", "0", "--mults", ""],
            ["ground-check", "--vector", "0", "--mults", "1"],
            ["spectrum", "--point", '{"kind":"A","k":4,"N":{"factors":{"2":2},"default":0}}', "--bound", "0"],
            ["spectrum", "--point", '{"kind":"A","k":4,"N":{"factors":{"2":2},"default":0}}', "--bound", "-3"],
            ["kms-check", "--state", "psi_beta", "--grid", "1"],
            ["kms-check", "--state", "psi_beta", "--beta", "2", "--at-beta", "inf", "--grid", "1"],
            ["kms-check", "--state", "psi_beta", "--beta", "2", "--at-beta", "nan", "--grid", "1"],
            ["kms-check", "--state", "psi_beta", "--beta", "1000", "--grid", "1"],
            ["kms-check", "--state", '{"variant":"ground","omega":{"vector":0}}', "--grid", "1"],
            ["ground-check", "--evaluation", "1/0"],
            ["ground-check", "--state", '{"variant":"ground","omega":{"evaluation":"1/0"}}'],
            ["kms-check", "--state", "psi_beta_mu", "--beta", "3", "--mu", '{"atoms":[["1/0","1"]]}', "--grid", "1"],
            ["bc", "--mode", "invariance", "--kmax", "0"],
            ["bc", "--mode", "invariance", "--kmax", "-1"],
            ["bc", "--mode", "euler", "--primes", ","],
            ["bc", "--mode", "reconstruct", "--beta", "2", "--primes", ","],
        ],
    )
    def test_empty_window_exit_2(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        if argv[-1] == ",":  # an empty --primes list
            assert err == "error: prime window must be nonempty\n"

    def test_overflow_names_base_and_exponent(self, capsys):
        # the weight 3^1000 of the grid's index 3 is past the largest double
        code, out, err = run_capture(capsys, ["kms-check", "--state", "psi_beta", "--beta", "1000", "--grid", "1"])
        assert code == 2
        assert out == ""
        assert err == "error: 3**1000.0 is past the largest double\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["state-eval", "--state", "psi_beta", "--beta", "2"],
            ["state-eval", "--state", "psi_beta", "--beta", "2", "--word", "s", "--monomial", "{}"],
            ["state-eval", "--state", "psi_beta", "--beta", "2", "--monomial", "[1]"],
            ["state-eval", "--state", '{"variant":"ground","omega":5}', "--word", "s"],
            ["kms-check", "--state", "psi_beta_mu", "--beta", "3", "--mu", "[]", "--grid", "0"],
            ["spectrum", "--point", "[]"],
            ["spectrum", "--point", '{"kind":"A","k":1,"N":5}'],
            ["bc", "--mode", "euler", "--character", "[]"],
            ["bc", "--mode", "euler", "--character", '{"modulus":4,"values":[]}'],
            ["spectrum", "--point", '{"kind":"A","k":1,"N":{"factors":[]}}'],
            ["kms-check", "--state", "psi_beta_mu", "--beta", "3", "--mu", '{"atoms":5}', "--grid", "1"],
            ["spectrum", "--point", '{"kind":"A","k":[1],"N":{"factors":{}}}', "--contains", "0", "1"],
            ["spectrum", "--point", '{"kind":"B","generator":null,"N":{"factors":{}}}', "--contains", "0", "1"],
            ["state-eval", "--state", "psi_beta", "--beta", "2", "--monomial", '{"kind":"mono","m":[0],"a":1,"b":1,"n":0}'],
            ["kms-check", "--state", '{"variant":"psi_beta","beta":[2]}', "--grid", "0"],
            ["kms-check", "--state", '{"variant":"ground","omega":{"vector":[1]}}', "--at-beta", "2", "--grid", "0"],
            ["state-eval", "--state", "psi_beta", "--beta", "2", "--monomial", '{"kind":"mono","m":0.5,"a":1,"b":1,"n":0}'],
            ["spectrum", "--point", '{"kind":"A","k":1,"N":{"factors":{"2":1.5}}}', "--contains", "0", "2"],
            ["kms-check", "--state", "psi_beta_mu", "--beta", "3", "--mu", '{"atoms":[[0, true]]}', "--grid", "0"],
            ["bc", "--mode", "euler", "--character", '{"modulus":1000000000000,"values":{"1":0}}'],
            ["bc", "--mode", "euler", "--character", LONG_CHARACTER],
            ["state-eval", "--state", "psi_beta_mu", "--beta", "3", "--mu", '{"lebesgue":"no"}', "--word", "s"],
            ["state-eval", "--state", "psi_beta", "--beta", "2", "--word", "s", "--precision", "5"],
            ["spectrum", "--point", '{"kind":"A","k":1,"N":{"factors":{}}}', "--contains", "1", "2", "--act", "1", "2"],
            ["kms-check", "--state", "psi_beta", "--beta", "1.5", "--at-beta", "3", "--grid", "1", "--precision", "-10"],
            ["ground-check", "--vector", "0", "--precision", "0"],
            ["measure", "--beta", "2", "1", "2", "--precision", "0"],
            ["reconstruct", "--state", "psi_beta_mu", "--beta", "3", "--primes", "2,3", "--precision", "-1"],
            ["bc", "--mode", "euler", "--precision", "0"],
            ["reduce", "v318665857834031151167461"],
            ["spectrum", "--point", '{"kind":"A","k":1,"N":{"factors":{"318665857834031151167461":1}}}', "--contains", "0", "1"],
            # cylinder series that would need more terms than the bound: refused before summing
            ["measure", "--beta", "1.0000001", "0", "6"],
            ["measure", "--beta", "1.0000000000000002", "0", "6"],
        ],
    )
    def test_malformed_input_exit_2(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error: " in err
        if "318665857834031151167461" in " ".join(argv):  # psi_12, a composite index or factor
            assert "318665857834031151167461 is not prime" in err

    def test_bc_euler_cli(self, capsys):
        code, out, _ = run_capture(
            capsys, ["bc", "--mode", "euler", "--primes", "3,5,7", "--beta", "1", "--truncation", "3000"]
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["defect"]) <= float(payload["tail_bound"]) + 1e-9

    def test_state_eval_monomial_json(self, capsys):
        mono = json.dumps({"kind": "mono", "m": 1, "a": 3, "b": 3, "n": 1})
        code, out, _ = run_capture(
            capsys, ["state-eval", "--state", "psi_beta", "--beta", "2", "--monomial", mono]
        )
        assert code == 0
        assert float(json.loads(out)["value"]["re"]) == pytest.approx(1 / 9)


class TestOutputDiscipline:
    def test_byte_identical_output(self, capsys):
        argv = ["kms-check", "--state", "psi_beta_mu", "--beta", "3", "--grid", "1"]
        _, first, _ = run_capture(capsys, argv)
        _, second, _ = run_capture(capsys, argv)
        assert first == second

    def test_every_payload_is_json(self, capsys):
        cases = [
            ["reduce", "s^3"],
            ["join", "1", "1", "0", "2"],
            ["euclid", "5", "3", "-2"],
            ["measure", "--beta", "1", "3", "6"],
        ]
        for argv in cases:
            code, out, _ = run_capture(capsys, argv)
            assert code == 0
            json.loads(out)

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run_capture(capsys, ["no-such-command"])
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(capsys, ["--format", "csv", "euclid", "3", "5", "1"])
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert rows["alpha"] == "2" and rows["beta"] == "1"


# Valid templates of each JSON argument and the commands that read it: the
# fuzzer below breaks one field of a template (nested N, mu and omega
# included) and runs one of the commands with it.
MU = {"atoms": [["1/8", "1/4"], ["2/3", "3/4"]]}
JSON_ARGUMENTS = {
    "state": (
        [
            {"variant": "psi_beta", "beta": 2},
            {"variant": "psi_beta_mu", "beta": 3, "mu": MU},
            {"variant": "ground", "omega": {"vector": 1}},
            {"variant": "ground", "omega": {"evaluation": "1/4"}},
            {"variant": "ground", "omega": {"mu": MU}},
        ],
        [
            ["state-eval", "--word", "s^2 v2 v2* s*"],
            ["kms-check", "--grid", "0"],
            ["ground-check", "--grid", "0"],
            ["reconstruct", "--primes", "2,3", "--n", "2"],
        ],
    ),
    "mu": (
        [MU, {"lebesgue": True}],
        [
            ["kms-check", "--state", "psi_beta_mu", "--beta", "3", "--grid", "0"],
            ["state-eval", "--state", "psi_beta_mu", "--beta", "3", "--word", "s"],
        ],
    ),
    "monomial": (
        [{"kind": "mono", "m": 4, "a": 2, "b": 2, "n": 0}, {"kind": "zero"}],
        [["state-eval", "--state", "psi_beta_mu", "--beta", "3"]],
    ),
    "point": (
        [
            {"kind": "A", "k": 4, "N": {"factors": {"2": 2, "3": "inf"}, "default": 0}},
            {"kind": "B", "generator": 3, "level": 12, "N": {"factors": {"2": 2, "3": 1}}},
            {"kind": "B", "generator": 5, "N": {"factors": {}, "default": "inf"}},
        ],
        [["spectrum", "--contains", "0", "1"]],
    ),
    "character": (
        [
            {"modulus": 4, "values": {"1": 0, "3": "1/2"}},
            {"modulus": 5, "values": {"1": 0, "2": "1/4", "3": "3/4", "4": "1/2"}},
        ],
        [["bc", "--mode", "euler", "--truncation", "10"]],
    ),
}

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["inf", "-1", "0", "1/2", "1/0", "nan", "2.5"]),
)
_values = st.one_of(_leaves, st.lists(_leaves, max_size=3), st.dictionaries(st.text(max_size=3), _leaves, max_size=3))


def _paths(obj, prefix=()):
    """Every position in a JSON value, the root () included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


class TestJsonShapeFuzz:
    @pytest.mark.parametrize("flag", sorted(JSON_ARGUMENTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_broken_field(self, flag, data):
        templates, commands = JSON_ARGUMENTS[flag]
        obj = copy.deepcopy(data.draw(st.sampled_from(templates)))
        path = data.draw(st.sampled_from(list(_paths(obj))))
        value = data.draw(_values)
        if not path:
            obj = value
        else:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        argv = data.draw(st.sampled_from(commands)) + [f"--{flag}={json.dumps(obj)}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
