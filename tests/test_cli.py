import argparse
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from hensel import arith, cli, orbital, padics, qseries, traceformula
from hensel.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_fl_verify_pass(capsys):
    code, payload = run_json(capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "3")
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["results"]["twisted_total"] == -3
    assert payload["results"]["expected"] == -3
    assert payload["results"]["closed_form"] == -3
    assert payload["results"]["saturated"] is True
    assert payload["params"]["delta"] == "2"  # auto-resolved non-residue
    assert payload["schema_version"] == 3
    assert "scan_method" not in payload["results"]
    assert payload["subcommand"] == "fl-verify"


def test_fl_verify_vb2(capsys):
    code, payload = run_json(capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "9")
    assert code == 0
    assert payload["results"]["twisted_total"] == 9


def test_fl_verify_vanishing(capsys):
    code, payload = run_json(
        capsys, "fl-verify", "--p", "3", "--a", "1/3", "--b", "3"
    )
    assert code == 0
    assert payload["results"]["regime"] == "vanishing"
    assert payload["results"]["twisted_total"] == 0
    assert payload["results"]["val_a"] == -1


def test_fl_verify_outside_regime_not_applicable(capsys):
    code, payload = run_json(capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "1")
    assert code == 0
    assert payload["verdict"] == "not-applicable"


def test_fl_verify_usage_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "fl-verify", "--p", "4", "--a", "1", "--b", "3")
    assert code == 2
    assert "odd prime" in err


def test_fl_verify_large_prime_saturates(capsys):
    code, payload = run_json(
        capsys, "fl-verify", "--p", "10007", "--a", "1", "--b", "10007"
    )
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["results"]["saturated"] is True
    assert payload["results"]["window"] == 1


@pytest.mark.parametrize("kappa", [1, 0])
@pytest.mark.parametrize("p", [3, 1009])
def test_fl_verify_at_val_b_ceiling(capsys, p, kappa):
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "fl-verify", "--p", str(p), "--a", "1",
        "--b", str(p**cli.FL_MAX_VAL_B), "--kappa", str(kappa),
    )
    assert (code, payload["verdict"]) == (0, "pass")
    assert payload["results"]["window"] == cli.FL_MAX_VAL_B // 2
    assert payload["results"]["saturated"] is True
    # the count and the recount walk 101^2 + 103^2 strata with integer
    # comparisons: a few hundredths of a second
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "command, verdict",
    [
        ("fl-verify --p 3 --a 1 --b 3", "pass"),
        ("fl-verify --p 3 --a 1/3 --b 3", "pass"),
        ("fl-verify --p 3 --a 1 --b 1", "not-applicable"),
        ("sweep --p-list 3,5,7 --vb-list 1,2,3", "pass"),
    ],
    ids=["unit", "vanishing", "outside", "sweep"],
)
def test_fl_paths_build_no_padic_scalar(capsys, monkeypatch, command, verdict):
    # the count reads integer valuations only, so no fl path can raise a
    # p-adic precision error and main needs no handler for one
    def refuse(*args, **kwargs):
        raise AssertionError("a PadicScalar was built")

    monkeypatch.setattr(padics.PadicScalar, "__init__", refuse)
    code, payload = run_json(capsys, *command.split())
    assert (code, payload["verdict"]) == (0, verdict)


def test_fl_verify_undersized_window_fails(capsys):
    code, payload = run_json(
        capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "3", "--window", "0"
    )
    assert code == 1
    assert payload["verdict"] == "fail"


def test_determinism_modulo_timing(capsys):
    _, p1 = run_json(capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "3")
    _, p2 = run_json(capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "3")
    p1.pop("elapsed_seconds")
    p2.pop("elapsed_seconds")
    assert p1 == p2


def test_sweep_grid(capsys):
    code, payload = run_json(
        capsys, "sweep", "--p-list", "3,5", "--vb-list", "1,2", "--kappa", "1"
    )
    assert code == 0
    rows = payload["results"]["rows"]
    assert len(rows) == 4
    assert all(r["status"] == "pass" for r in rows)
    assert {(r["p"], r["val_b"]): r["brute_force"] for r in rows} == {
        (3, 1): -3,
        (3, 2): 9,
        (5, 1): -5,
        (5, 2): 25,
    }


def test_sweep_empty_grid_passes(capsys):
    # an empty grid checks nothing: it exits 0, but its verdict is not a pass
    code, payload = run_json(capsys, "sweep", "--p-list", "", "--vb-list", "")
    assert code == 0
    assert payload["results"]["rows"] == []
    assert payload["verdict"] == "not-applicable"


def test_sweep_vb_zero_not_applicable(capsys):
    code, payload = run_json(capsys, "sweep", "--p-list", "3", "--vb-list", "0")
    assert code == 0
    assert payload["results"]["rows"][0]["status"] == "not-applicable"
    assert payload["verdict"] == "not-applicable"
    code, payload = run_json(capsys, "sweep", "--p-list", "3", "--vb-list", "0,1")
    assert (code, payload["verdict"]) == (0, "pass")


def test_fl_verify_and_sweep_share_one_verdict(capsys, monkeypatch):
    # a wrong closed form must fail both, since both read the report's verdict
    monkeypatch.setattr(orbital, "closed_form_count", lambda p, vb, kappa: 0)
    code, payload = run_json(capsys, "fl-verify", "--p", "3", "--a", "1", "--b", "3")
    assert code == 1 and payload["verdict"] == "fail"
    assert payload["results"]["twisted_total"] == payload["results"]["expected"] == -3
    code, payload = run_json(capsys, "sweep", "--p-list", "3", "--vb-list", "1")
    assert code == 1 and payload["results"]["rows"][0]["status"] == "fail"


def test_readme_cli_commands_pass(capsys):
    # every command of the README's CLI block runs and passes, and the block
    # shows each subcommand and no other
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "hensel"
        code, payload = run_json(capsys, *argv[1:])
        assert (code, payload["verdict"]) == (0, "pass"), argv
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[1] for argv in commands} == set(subparsers.choices)


def test_hecke_subcommand(capsys):
    code, payload = run_json(capsys, "hecke", "--p", "2", "--truncation", "64")
    assert code == 0
    assert payload["results"]["eigenvalue"] == -24
    assert payload["results"]["is_eigenform"] is True


def test_hecke_input_truncation_ceiling_exit_2(capsys, monkeypatch):
    # a stand-in delta shows the check runs before any series is built
    monkeypatch.setattr(cli.qseries, "delta", None)
    limit = cli.HECKE_MAX_INPUT_TRUNCATION
    code, out, err = run_cli(capsys, "hecke", "--p", "2", "--truncation", str(limit // 2 + 1))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and str(limit) in err


def test_theta_subcommand(capsys):
    code, payload = run_json(capsys, "theta", "--t", "1")
    assert (code, payload["verdict"]) == (0, "pass")
    results = payload["results"]
    assert results["residual"] <= results["bound"] < 1e-12
    assert "tolerance" not in results and "tol" not in payload["params"]


def test_lseries_subcommand(capsys):
    code, payload = run_json(
        capsys, "lseries", "--character", "mod4", "--s", "2",
        "--nmax", "100000", "--pmax", "10000",
    )
    assert (code, payload["verdict"]) == (0, "pass")
    results = payload["results"]
    assert abs(results["partial_sum"] - 0.9159655941) < 1e-6
    assert results["gap"] <= results["bound"] < 2e-4
    assert "tolerance" not in results and "tol" not in payload["params"]


@pytest.mark.parametrize("subcommand", ["theta --t 1", "lseries"])
def test_tol_option_is_gone(capsys, subcommand):
    # the verdicts come from a proven bound, not a tolerance the user picks
    with pytest.raises(SystemExit) as exc:
        main([*subcommand.split(), "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("theta", "--t", "nan"), "--t nan"),
        (("theta", "--t", "inf"), "--t inf"),
        (("lseries", "--s", "nan"), "--s nan"),
        (("lseries", "--s", "inf"), "--s inf"),
    ],
)
def test_non_finite_float_exit_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"hensel: error: {flag} is not a finite number\n"


@pytest.mark.parametrize(
    "argv",
    [("lseries", "--nmax", "1", "--pmax", "2"), ("lseries", "--s", "1.1"),
     ("theta", "--t", "1e-6")],
)
def test_bound_as_large_as_values_not_applicable(capsys, argv):
    # a bound that would pass either value replaced by 0 checks nothing
    code, payload = run_json(capsys, *argv)
    assert (code, payload["verdict"]) == (0, "not-applicable")


def _sum_without(n_drop):
    real = arith.dirichlet_sum_partial
    return lambda chi, s, n_max: real(chi, s, n_max) - chi(n_drop) * n_drop**-s


def _product_without(p_drop):
    real = arith.euler_product_partial
    return lambda chi, s, p_max: real(chi, s, p_max) * (1 - chi(p_drop) * p_drop**-s)


def _theta_without_left_n1(t, m_max=50):
    s1 = 1.0 + 2.0 * sum(math.exp(-math.pi * n * n * t) for n in range(2, m_max + 1))
    s2 = 1.0 + 2.0 * sum(math.exp(-math.pi * n * n / t) for n in range(1, m_max + 1))
    return abs(s1 - s2 / math.sqrt(t))


def _one_more_class(real, where=lambda p, va, vb, m: True):
    # one extra stable class in grading class 1, at the (p, val a, val b,
    # window) that `where` picks
    def mutant(p, va, vb, m):
        counts = dict(real(p, va, vb, m))
        counts[1] += where(p, va, vb, m)
        return counts
    return mutant


def _delta_top_coefficient_plus_one():
    real = qseries.delta

    def mutant(truncation):
        f = real(truncation)
        *low, top = f.coefficients
        return qseries.QExpansion(f.weight, (*low, top + 1))
    return mutant


def _frobenius_flipped_at(p_flip):
    real = arith.frobenius_quadratic
    flip = {arith.FrobeniusClass.SPLIT: arith.FrobeniusClass.INERT,
            arith.FrobeniusClass.INERT: arith.FrobeniusClass.SPLIT}
    return lambda d, p: flip[real(d, p)] if p == p_flip else real(d, p)


def _class_weight_plus_one(class_size):
    real = traceformula._class_weight
    return lambda g, size, h, h_size: real(g, size, h, h_size) + (size == class_size)


def _last_coset_replaced_by_first():
    real = traceformula.FiniteGroupTable.coset_reps
    return lambda group, subgroup: (reps := real(group, subgroup))[:-1] + reps[:1]


@pytest.mark.parametrize(
    "command, module, name, mutant",
    [
        # chi_4(2) = 0, so dropping n = 2 is no mutant for mod4
        ("lseries --character mod4 --s 2", arith, "dirichlet_sum_partial", _sum_without(3)),
        ("lseries --character mod4 --s 2", arith, "euler_product_partial", _product_without(3)),
        ("lseries --s 2", arith, "dirichlet_sum_partial", _sum_without(2)),
        ("lseries --s 2", arith, "euler_product_partial", _product_without(2)),
        ("theta --t 2.0", qseries, "theta_functional_equation_residual",
         _theta_without_left_n1),
        ("fl-verify --p 3 --a 1 --b 3", orbital, "_inclusion_counts",
         _one_more_class(orbital._inclusion_counts)),
        ("fl-verify --p 3 --a 1 --b 9 --kappa 0", orbital, "_inclusion_counts",
         _one_more_class(orbital._inclusion_counts)),
        # in the vanishing regime _stable_counts returns 0 by the index argument
        # without calling _inclusion_counts, so the mutant replaces it
        ("fl-verify --p 3 --a 1/3 --b 3", orbital, "_stable_counts",
         _one_more_class(orbital._stable_counts)),
        # the default window at val(b) = 1 is 1: only the recount at 2 is wrong
        ("fl-verify --p 3 --a 1 --b 3", orbital, "_stable_counts",
         _one_more_class(orbital._stable_counts, lambda p, va, vb, m: m == 2)),
        ("sweep --p-list 3,5,7 --vb-list 1,2,3 --kappa 1", orbital, "_inclusion_counts",
         _one_more_class(orbital._inclusion_counts, lambda p, va, vb, m: p == 7)),
        # at depth 2 the check reads a_1, a_2 and a_4 of delta(4)
        ("hecke --p 2 --truncation 2", qseries, "delta", _delta_top_coefficient_plus_one()),
        ("frobenius --d -1 --pmax 1000", arith, "frobenius_quadratic",
         _frobenius_flipped_at(7)),
        # the transpositions of S3 form its one class of size 3
        ("trace --group S3", traceformula, "_class_weight", _class_weight_plus_one(3)),
        # one coset counted twice and one not at all
        ("trace --group S3", traceformula.FiniteGroupTable, "coset_reps",
         _last_coset_replaced_by_first()),
    ],
    ids=["mod4-drop-n3", "mod4-drop-p3", "trivial-drop-n2", "trivial-drop-p2",
         "theta-drop-left-n1", "fl-unit-extra-class", "fl-kappa0-extra-class",
         "fl-vanishing-extra-class", "fl-recount-extra-class", "sweep-p7-extra-class",
         "hecke-depth2-delta-a4", "frobenius-flip-p7", "trace-s3-weight",
         "trace-s3-coset-twice"],
)
def test_bound_catches_dropped_terms(capsys, monkeypatch, command, module, name, mutant):
    # power: each check passes, and one wrong term, class, coefficient or
    # weight in its computation turns the pass into a failed verdict
    assert run_json(capsys, *shlex.split(command))[1]["verdict"] == "pass"
    monkeypatch.setattr(module, name, mutant)
    code, payload = run_json(capsys, *shlex.split(command))
    assert (code, payload["verdict"]) == (1, "fail")


LSERIES_NMAX = ("lseries", "--nmax")
LSERIES_PMAX = ("lseries", "--pmax")
FROBENIUS_PMAX = ("frobenius", "--d", "-1", "--pmax")
THETA_TRUNCATION = ("theta", "--t", "1", "--truncation")


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize(
    "argv, limit, step",
    [
        # ceilings: the limit passes, limit + 1 exits 2
        pytest.param(LSERIES_NMAX, cli.LSERIES_MAX_CUTOFF, 1, id="argv0-10000000"),
        pytest.param(LSERIES_PMAX, cli.LSERIES_MAX_CUTOFF, 1, id="argv1-10000000"),
        pytest.param(FROBENIUS_PMAX, cli.FROBENIUS_MAX_PMAX, 1, id="argv2-1000000"),
        pytest.param(
            THETA_TRUNCATION, cli.THETA_MAX_TRUNCATION, 1, id="theta-truncation-ceiling"
        ),
        # floors: the limit passes, limit - 1 exits 2 instead of an empty range
        pytest.param(LSERIES_NMAX, 1, -1, id="lseries-nmax-floor"),
        pytest.param(LSERIES_PMAX, 2, -1, id="lseries-pmax-floor"),
        pytest.param(FROBENIUS_PMAX, 2, -1, id="frobenius-pmax-floor"),
        pytest.param(THETA_TRUNCATION, 1, -1, id="theta-truncation-floor"),
    ],
)
def test_cutoff_ceilings_exit_2(capsys, monkeypatch, argv, limit, step, over):
    # stand-ins for the sums, the product and the sieve: the bound itself is
    # accepted, and one past it exits 2 before any of them runs
    for name in ("dirichlet_sum_partial", "euler_product_partial"):
        monkeypatch.setattr(cli.arith, name, lambda *args: 0.0)
    monkeypatch.setattr(cli.arith, "reciprocity_check", lambda *args: [])
    monkeypatch.setattr(cli, "primes_upto", lambda n: [])
    monkeypatch.setattr(
        cli.qseries, "theta_functional_equation_residual", lambda *args: 0.0
    )
    code, out, err = run_cli(capsys, *argv, str(limit + step * over))
    if over:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.endswith(f" {limit}\n")
    else:
        assert code == 0


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize(
    "template, limit",
    [
        # {v} is the value of the bounded quantity, {b} the b of that valuation
        ("fl-verify --p 3 --a 1 --b {b}", cli.FL_MAX_VAL_B),
        # the untwisted orbital counts, which `fl-verify --kappa 0` prints
        ("fl-verify --p 3 --a 1 --b {b} --kappa 0", cli.FL_MAX_VAL_B),
        ("sweep --p-list 3 --vb-list 1,{v}", cli.FL_MAX_VAL_B),
        ("fl-verify --p 3 --a 1 --b 3 --window {v}", cli.FL_MAX_VAL_B // 2),
        ("fl-verify --p 3 --a 1 --b 3 --kappa 0 --window {v}", cli.FL_MAX_VAL_B // 2),
    ],
    ids=["fl-verify-val-b", "orbital-val-b", "sweep-vb-list", "fl-verify-window",
         "orbital-window"],
)
def test_fl_radius_ceilings_exit_2(capsys, monkeypatch, template, limit, over):
    # a passing stand-in report for the count: the bound itself is accepted,
    # and one past it exits 2 before any count runs
    blank = orbital.OrbitalReport(*[None] * len(orbital.OrbitalReport._fields))
    report = blank._replace(saturated=True, verdict=True)
    monkeypatch.setattr(orbital, "verify_fundamental_lemma", lambda *a, **k: report)
    v = limit + over
    code, out, err = run_cli(capsys, *template.format(v=v, b=3**v).split())
    if over:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.endswith(f" {limit}\n")
    else:
        assert code == 0


def test_lseries_unknown_character(capsys):
    code, out, err = run_cli(capsys, "lseries", "--character", "bogus")
    assert code == 2


def test_frobenius_subcommand(capsys):
    code, payload = run_json(capsys, "frobenius", "--d", "-1", "--pmax", "1000")
    assert code == 0
    assert payload["results"]["mismatch_count"] == 0
    assert payload["results"]["character"] == "mod4"


def test_frobenius_two_unramified_for_d_one_mod_four(capsys):
    code, payload = run_json(capsys, "frobenius", "--d", "5", "--pmax", "10")
    assert code == 0
    assert payload["results"]["tallies"] == {"inert": 3, "ramified": 1, "split": 0}


def test_frobenius_needs_character_for_general_d(capsys):
    code, out, err = run_cli(capsys, "frobenius", "--d", "-6")
    assert code == 2
    assert "--character" in err


def test_trace_named_group(capsys):
    code, payload = run_json(capsys, "trace", "--group", "S3")
    assert code == 0
    assert payload["results"]["pairs"] == 6
    assert payload["results"]["failures"] == 0


@pytest.mark.parametrize("group", ["C0", "S0", "A0"])
def test_trace_degree_zero_exit_2(capsys, group):
    code, out, err = run_cli(capsys, "trace", "--group", group)
    assert code == 2 and out == ""
    assert "degree" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "S6"),
        ("--group", "S9"),
        ("--group", "(1 2);(1 2 3 4 5 6)", "--degree", "6"),
    ],
)
def test_trace_group_order_ceiling_exit_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "trace", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert str(traceformula.MAX_GROUP_ORDER) in err


def test_import_starts_no_pool_machinery():
    # no check uses concurrent.futures (with the logging it imports),
    # dataclasses (with inspect) or complex arithmetic
    probe = (
        "import sys, hensel.cli; print([m for m in "
        "('concurrent.futures', 'dataclasses', 'inspect', 'cmath') "
        "if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_trace_generators_and_subgroup(capsys):
    code, payload = run_json(
        capsys,
        "trace",
        "--group", "(1 2);(1 2 3 4)",
        "--degree", "4",
        "--subgroup", "(1 2);(1 2 3)",
    )
    assert code == 0
    assert payload["results"]["rows"][0]["group_order"] == 24
    assert payload["results"]["rows"][0]["subgroup_order"] == 6


def test_csv_format(capsys):
    # the CSV printer is gone: `--format` is a usage error that prints nothing
    # on stdout, and the same command without it prints one JSON payload
    with pytest.raises(SystemExit) as exc:
        main(["--format", "csv", "sweep", "--p-list", "3", "--vb-list", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("hensel: error: argument subcommand: invalid choice")
    code, payload = run_json(capsys, "sweep", "--p-list", "3", "--vb-list", "1")
    assert (code, payload["verdict"]) == (0, "pass")


def test_infinite_valuation_serializes(capsys):
    code, payload = run_json(capsys, "fl-verify", "--p", "3", "--a", "0", "--b", "3")
    assert code == 0
    assert payload["results"]["val_a"] == "inf"
    assert payload["results"]["regime"] == "vanishing"
