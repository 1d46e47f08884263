import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanbal.cli import build_parser, catalog_hash, main
from oracles import factored_from_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_catalog_plain(capsys):
    code, out, _ = run(capsys, "catalog", "--dim-cap", "6")
    assert code == 0
    assert "I:2,2" in out and "IV:6" in out
    assert "18 domains" in out


def test_catalog_json(capsys):
    code, payload, _ = run_json(capsys, "catalog", "--dim-cap", "4")
    assert code == 0
    assert payload["schema"] == 1
    row = payload["domains"][0]
    assert set(row) == {"label", "family", "sizes", "r", "a", "b", "gamma", "dim", "is_ball"}
    assert row["label"] == "I:1,1"


def test_wallach_json_schema(capsys):
    code, payload, _ = run_json(capsys, "wallach", "--domain", "I:2,2")
    assert code == 0
    assert payload == {
        "schema": 1,
        "domain": "I:2,2",
        "discrete": ["0", "1"],
        "threshold": "1",
    }


def test_projective_exit_codes(capsys):
    code, out, _ = run(capsys, "projective", "--domain", "I:2,2", "--beta", "1/2")
    assert code == 0 and "true" in out
    code, out, _ = run(capsys, "projective", "--domain", "I:2,2", "--beta", "1/8")
    assert code == 2 and "false" in out


def test_projective_hartogs_witness(capsys):
    code, payload, _ = run_json(
        capsys, "projective-hartogs", "--domain", "I:2,2", "--mu", "4/5", "--alpha", "1/4"
    )
    assert code == 2
    assert payload["projectively_induced"] is False
    assert payload["witness_m"] == 0
    code, payload, _ = run_json(
        capsys, "projective-hartogs", "--domain", "I:2,2", "--mu", "4/5", "--alpha", "3"
    )
    assert code == 0
    assert payload["projectively_induced"] is True
    assert payload["witness_m"] is None


def test_moment_exact_value(capsys):
    code, out, _ = run(capsys, "moment", "--domain", "IV:4", "--s", "1/2")
    assert code == 0
    assert "64/175" in out
    code, payload, _ = run_json(capsys, "moment", "--domain", "IV:4", "--s", "1/2")
    assert payload["value"] == "64/175"
    assert payload["value_float"] == 64 / 175


def test_moment_divergent_is_an_error(capsys):
    code, _, err = run(capsys, "moment", "--domain", "I:1,1", "--s", "-2")
    assert code == 1
    assert "diverges" in err


def test_moment_negative_rational_both_spellings(capsys):
    # M(s) = 1/(s+1) on the disc, so M(-1/2) = 2
    for argv in (("--s", "-1/2"), ("--s=-1/2",)):
        code, payload, _ = run_json(capsys, "moment", "--domain", "I:1,1", *argv)
        assert code == 0
        assert payload["s"] == "-1/2"
        assert payload["value"] == "2"


def test_moment_negative_rational_divergent_is_an_error(capsys):
    for argv in (("--s", "-3/2"), ("--s=-3/2",)):
        code, _, err = run(capsys, "moment", "--domain", "I:1,1", *argv)
        assert code == 1
        assert "diverges" in err


def test_moment_rejects_decimals(capsys):
    code, _, err = run(capsys, "moment", "--domain", "I:1,1", "--s", "0.5")
    assert code == 1
    assert "error" in err


def test_moment_ratio_round_trip(capsys):
    code, payload, _ = run_json(capsys, "moment-ratio", "--domain", "IV:4")
    assert code == 0
    fr = factored_from_text(payload["round_trip"])
    assert str(fr) == payload["text"]
    assert payload["denom_degree"] == 4
    assert payload["block_lengths"] == [3, 1]


def test_balanced_cartan_exit_codes(capsys):
    code, _, _ = run(capsys, "balanced-cartan", "--domain", "II:3", "--beta", "3/4")
    assert code == 2  # threshold for gamma=4 is 3/4, boundary rejected
    code, _, _ = run(capsys, "balanced-cartan", "--domain", "II:3", "--beta", "4/5")
    assert code == 0


def test_balanced_hartogs_witness_text(capsys):
    code, out, _ = run(
        capsys, "balanced-hartogs", "--domain", "I:1,1", "--mu", "2", "--alpha", "4"
    )
    assert code == 2
    assert "m_dependence" in out
    assert "3/7" in out and "4/9" in out
    code, payload, _ = run_json(
        capsys, "balanced-hartogs", "--domain", "I:1,1", "--mu", "2", "--alpha", "4"
    )
    assert payload["witness_m"] == 1
    assert payload["value_at_0"] == "3/7"
    assert payload["value_at_witness"] == "4/9"


def test_balanced_hartogs_true_case(capsys):
    code, payload, _ = run_json(
        capsys, "balanced-hartogs", "--domain", "I:1,1", "--mu", "1", "--alpha", "4"
    )
    assert code == 0
    assert payload["balanced"] is True
    assert payload["reason"] == "ok"


def test_scan_json_theorem_two(capsys):
    code, payload, _ = run_json(capsys, "scan", "--dim-cap", "10")
    assert code == 0
    rows = payload["rows"]
    # rows come out grouped by domain, in catalog order
    domains = [r["domain"] for r in rows]
    first_seen = list(dict.fromkeys(domains))
    assert domains == sorted(domains, key=first_seen.index)
    assert first_seen[0] == "I:1,1"
    assert set(rows[0]) >= {"domain", "mu", "alpha", "balanced", "reason", "witness_m"}
    for row in rows:
        if row["balanced"]:
            assert row["mu"] == "1"
            assert row["domain"].startswith(("I:1,", "II:1", "III:2", "III:3"))


def test_scan_explicit_grid(capsys):
    code, payload, _ = run_json(
        capsys, "scan", "--dim-cap", "2", "--mus", "1,2", "--alphas", "4"
    )
    assert code == 0
    assert len(payload["rows"]) == 2 * len(
        {r["domain"] for r in payload["rows"]}
    )


def test_corollary_scan_exit(capsys):
    code, payload, _ = run_json(capsys, "corollary-scan", "--dim-cap", "10")
    assert code == 0
    assert payload["all_ok"] is True
    non_ball = [r for r in payload["rows"] if not r["excluded"]]
    assert all(r["projectively_induced"] and not r["balanced"] for r in non_ball)


def test_corollary_scan_invalid_alpha_exits_one(capsys):
    # exit 2 means a row's claim fails; a nonpositive alpha is an input error
    # dim_cap 2 holds only balls, so no row would ever check the alpha
    for cap, alphas, bad in (("4", "0", "0"), ("4", "-1/2,3", "-1/2"), ("2", "0", "0")):
        for extra in ((), ("--json",)):
            argv = ("corollary-scan", "--dim-cap", cap, f"--alphas={alphas}", *extra)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == f"error: alpha must be positive, got {bad}\n", argv


def test_immersion_check(capsys):
    code, payload, _ = run_json(
        capsys,
        "immersion",
        "--d", "1",
        "--mu", "1",
        "--alpha", "3",
        "--cap", "60",
        "--check-grid", "0.4:5",
    )
    assert code == 0
    assert payload["entries"] == 62 * 61 // 2
    assert payload["check"]["samples_checked"] == 25
    assert payload["check"]["max_rel_error"] < 1e-8


def test_immersion_checks_the_largest_grid(capsys):
    # 10,000 samples: more than one chunk of monomials at d=2, cap 60
    code, payload, _ = run_json(
        capsys,
        "immersion",
        "--d", "2",
        "--mu", "3/2",
        "--alpha", "4",
        "--cap", "60",
        "--check-grid", "0.4:100",
    )
    assert code == 0
    assert payload["check"]["samples_checked"] == 10_000
    assert payload["check"]["max_rel_error"] <= payload["check"]["tail_bound"]


def test_epsilon_ball_csv(tmp_path, capsys):
    out_csv = tmp_path / "eps.csv"
    code, payload, _ = run_json(
        capsys,
        "epsilon-ball",
        "--d", "1",
        "--alpha", "3",
        "--rmax", "0.5",
        "--cap", "60",
        "--csv", str(out_csv),
    )
    assert code == 0
    assert payload["verdict"] == "constant"
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["|z|", "|w|", "epsilon"]
    assert len(rows) == 26
    values = [float(r[2]) for r in rows[1:]]
    assert all(abs(v - 2 / math.pi) < 1e-9 for v in values)


def test_epsilon_ball_trivial_is_error(capsys):
    code, _, err = run(capsys, "epsilon-ball", "--d", "1", "--alpha", "0.5")
    assert code == 1
    assert "alpha" in err


def test_epsilon_hartogs_small(capsys):
    code, payload, _ = run_json(
        capsys,
        "epsilon-hartogs",
        "--mu", "2",
        "--alpha", "4",
        "--grid", "4x4",
        "--caps", "60,60",
    )
    assert code == 0
    assert payload["verdict"] == "non-constant"
    assert len(payload["values"]) == 16
    assert payload["truncation_degree"] == [60, 60]


def test_manifest(capsys):
    code, payload, _ = run_json(
        capsys, "wallach", "--domain", "II:2", "--manifest"
    )
    assert code == 0
    man = payload["manifest"]
    assert man["tool"] == "cartanbal"
    assert len(man["catalog_hash"]) == 64
    assert man["catalog_hash"] == catalog_hash()
    assert man["parameters"]["domain"] == "II:2"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "wallach")[0] == 1  # missing required --domain
    assert run(capsys, "projective", "--domain", "I:2,2", "--beta", "junk")[0] == 1
    assert run(capsys)[0] == 1  # no subcommand prints usage
    # malformed flag values: one error line naming the flag, no traceback
    for flag, value, base in (
        ("--grid", "8", ("epsilon-hartogs", "--mu", "1", "--alpha", "3")),
        ("--caps", "80", ("epsilon-hartogs", "--mu", "1", "--alpha", "3")),
        ("--check-grid", "1.5:3", ("immersion", "--mu", "1", "--alpha", "3")),
        ("--check-grid", "0.4:0", ("immersion", "--mu", "1", "--alpha", "3")),
    ):
        code, out, err = run(capsys, *base, flag, value)
        assert (code, out) == (1, ""), (flag, value)
        assert err.startswith("error: ") and err.count("\n") == 1, (flag, value, err)
        assert f"argument {flag}" in err and "Traceback" not in err, (flag, value, err)
    # each flag parser's own reason reaches the message, and no function name does
    hartogs = ("balanced-hartogs", "--domain", "I:1,1", "--alpha", "4")
    epsilon = ("epsilon-hartogs", "--mu", "1", "--alpha", "3")
    immersion = ("immersion", "--mu", "1", "--alpha", "3")
    for argv, reason in (
        (("wallach", "--domain", "IX:1"), "unknown family"),
        (hartogs + ("--mu", "0.5"), "decimal notation is not accepted here"),
        (("scan", "--mus", "1,x"), "expected an exact rational"),
        (epsilon + ("--grid", "8y8"), "expected ROWSxCOLS"),
        (epsilon + ("--caps", "80"), "expected two caps"),
        (immersion + ("--check-grid", "1.5:3"), "need 0 < rmax < 1"),
        # a list, pair or grid that starts with a negative number is a value, not an option
        (("scan", "--mus", "-1/2,1"), "mu must be positive, got -1/2"),
        (epsilon + ("--caps", "-1,4"), "caps must be nonnegative, got (-1, 4)"),
        (immersion + ("--check-grid", "-0.4:3"), "need 0 < rmax < 1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.count("\n") == 1 and reason in err, (argv, err)
        for name in ("parse_domain", "parse_rational", "_rational_list", "_grid_shape",
                     "_caps_pair", "_check_grid", "typed", "invalid"):
            assert name not in err, (argv, err)


def test_bad_domain_is_an_error(capsys):
    code, _, err = run(capsys, "wallach", "--domain", "IX:1")
    assert code == 1
    assert "error" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "scan", "--help")[0] == 0


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "cartanbal" in out


def test_non_finite_numeric_inputs_name_the_parameter(capsys):
    hartogs = ("epsilon-hartogs", "--grid", "2x2", "--caps", "4,4")
    cases = [
        (("epsilon-ball",), "--alpha"),
        (hartogs + ("--alpha", "4"), "--mu"),
        (hartogs + ("--mu", "1"), "--alpha"),
    ]
    for base, flag in cases:
        for value in ("nan", "inf", "-inf"):
            code, _, err = run(capsys, *base, f"{flag}={value}")
            assert code == 1, (base, flag, value)
            assert f"{flag[2:]} must be finite" in err, (base, flag, value, err)


def test_immersion_negative_cap_is_an_error(capsys):
    code, _, err = run(capsys, "immersion", "--mu", "1", "--alpha", "3", "--cap", "-1")
    assert code == 1
    assert "degree_cap" in err


def test_epsilon_ball_needs_grid_points(capsys):
    for points in ("0", "-1"):
        code, _, err = run(capsys, "epsilon-ball", "--alpha", "3", "--cap", "10", "--grid-points", points)
        assert code == 1
        assert "grid_points" in err


def test_oversized_caps_are_refused_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "epsilon-hartogs", "--mu", "1", "--alpha", "3", "--caps", "2000,2000")
    assert code == 1
    assert "caps" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


def test_size_limits_count_the_arrays_a_request_builds(capsys):
    # a ball(2) row holds cap+1 coefficients, as at d=1, and a long z cap
    # fits a 100x100 grid; 10,000 x 25,000 z-side powers do not
    for argv, verdict in (
        (("epsilon-ball", "--d", "2", "--alpha", "3.5", "--cap", "300"), "constant"),
        (("epsilon-hartogs", "--mu", "2", "--alpha", "4", "--grid", "100x100", "--caps", "300,10"),
         "non-constant"),
    ):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0 and payload["verdict"] == verdict, argv
    code, out, err = run(capsys, "epsilon-hartogs", "--mu", "2", "--alpha", "4",
                         "--grid", "10000x1", "--caps", "24999,0")
    assert code == 1 and out == ""
    assert err.startswith("error: caps=(24999, 0) ") and err.count("\n") == 1


def test_norms_outside_the_float_range_are_an_error(capsys):
    # these printed "min epsilon: nan" and exited 0 after numpy overflow
    # warnings, which the suite's filterwarnings setting turns into errors
    for argv in (
        ("epsilon-ball", "--alpha", "300.5", "--cap", "24999", "--grid-points", "5"),
        ("epsilon-hartogs", "--mu", "5", "--alpha", "300", "--caps", "150,150", "--grid", "2x2"),
        # mu (alpha + m) itself past the float range leaked an overflow warning line
        ("epsilon-hartogs", "--mu", "1e200", "--alpha", "1e200", "--caps", "2,2", "--grid", "2x2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "float range" in err, argv


def test_huge_rationals_are_an_error_not_a_traceback(capsys):
    # both results are exact rationals past the 4,300-digit int-to-str limit
    for argv in (
        ("balanced-hartogs", "--domain", "I:60,60", "--mu", "1", "--alpha", "4000", "--json"),
        ("moment", "--domain", "I:100,100", "--s", "1/3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, argv


def test_dim_cap_limits(capsys):
    # the largest allowed cap runs; one more is refused before any work
    for ok_argv, refused in (
        (("catalog", "--dim-cap", "1000"), ("catalog", "--dim-cap", "1001")),
        (("scan", "--dim-cap", "100", "--mus", "1", "--alphas", "1/2"), ("scan", "--dim-cap", "101")),
    ):
        code, out, _ = run(capsys, *ok_argv)
        assert code == 0 and out, ok_argv
        start = time.perf_counter()
        code, out, err = run(capsys, *refused)
        assert time.perf_counter() - start < 1.0, refused
        assert code == 1 and out == "", refused
        assert err.startswith(f"error: dim_cap={refused[-1]} needs"), refused
        assert "Traceback" not in err


def test_scan_row_limits(capsys):
    # the largest allowed grid runs; the next larger one is refused before any
    # verdict.  Cap 1 has 3 domains (12,000 rows = 3 x 1 x 4,000); cap 3 has 6
    # balls and 2 other domains (12,000 rows = 6 + 2 x 5,997).
    def alphas(value, count):
        return ",".join([value] * count)

    for ok_argv, refused, message in (
        (("scan", "--dim-cap", "1", "--mus", "1", "--alphas", alphas("1/2", 4000)),
         ("scan", "--dim-cap", "1", "--mus", "1", "--alphas", alphas("1/2", 4001)),
         "len(mus) x len(alphas)=1x4001 needs 12,003 scan rows, over the limit of 12,000"),
        (("corollary-scan", "--dim-cap", "3", "--alphas", alphas("10", 5997)),
         ("corollary-scan", "--dim-cap", "3", "--alphas", alphas("10", 5998)),
         "len(alphas)=5998 needs 12,002 corollary rows, over the limit of 12,000"),
    ):
        code, out, _ = run(capsys, *ok_argv)
        # a header, a rule, 12,000 rows and a summary line
        assert code == 0 and out.count("\n") == 12_003, ok_argv[0]
        start = time.perf_counter()
        code, out, err = run(capsys, *refused)
        assert time.perf_counter() - start < 1.0, refused[0]
        assert code == 1 and out == "", refused[0]
        assert err == f"error: {message}\n"


def test_oversized_check_grid_is_refused_at_once(capsys):
    # the sample grid is sized before build_immersion, so neither build runs
    for extra, message in (
        (("--cap", "600", "--check-grid", "0.5:1000"), "check_grid=0.5:1000 needs 1,000,000 samples"),
        (("--d", "199998", "--cap", "1", "--check-grid", "0.4:100"),
         "samples=10000 needs 1,999,980,000 cells"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "immersion", "--mu", "1", "--alpha", "3", *extra)
        assert code == 1 and out == "", extra
        assert err.startswith("error: ") and err.count("\n") == 1, extra
        assert message in err, extra
        assert time.perf_counter() - start < 1.0, extra


def test_oversized_immersions_are_refused_at_once(capsys):
    # cheap lower bounds on the entry count come before the exact binomial
    for d, cap in (("1000000", "1000000"), ("100000", "100000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "immersion", "--mu", "1", "--alpha", "3", "--d", d, "--cap", cap)
        assert time.perf_counter() - start < 1.0, d
        assert code == 1 and out == "", d
        assert err.startswith(f"error: degree_cap={cap} needs") and err.count("\n") == 1, err
        assert "integer string conversion" not in err


def test_immersion_check_over_a_larger_ball(capsys):
    # a check takes samples x max(cap+1, d) cells: 9 x 10 here
    code, payload, _ = run_json(capsys, "immersion", "--d", "10", "--mu", "1", "--alpha", "12",
                                "--cap", "5", "--check-grid", "0.4:3")
    assert code == 0
    assert payload["check"]["samples_checked"] == 9
    assert payload["check"]["max_rel_error"] <= payload["check"]["tail_bound"]


def test_immersion_check_at_large_alpha(capsys):
    # at alpha 400 a tail-bound candidate is past the float range, at 3000 the target
    code, payload, _ = run_json(capsys, "immersion", "--mu", "1", "--alpha", "400", "--cap", "20",
                                "--check-grid", "0.4:3")
    assert code == 0
    assert payload["check"]["max_rel_error"] <= payload["check"]["tail_bound"]
    code, out, err = run(capsys, "immersion", "--mu", "1", "--alpha", "3000", "--cap", "20",
                         "--check-grid", "0.4:3")
    assert code == 1 and out == ""
    assert err.startswith("error: alpha=3000.0: ") and err.count("\n") == 1
    assert "float range" in err
    # at alpha 10^30 the one sample's target is 1 and the slice factors overflow
    code, out, err = run(capsys, "immersion", "--mu", "1", "--alpha", str(10**30), "--cap", "20",
                         "--check-grid", "0.4:1")
    assert code == 1 and out == ""
    assert err.startswith("error: mu=1.0, alpha=1e+30: ") and err.count("\n") == 1
    assert "float range" in err and "Traceback" not in err


def _no_constant(token):
    raise AssertionError(f"{token} is not JSON")


def test_infinite_tail_bound_is_json_null(capsys):
    # at |z| = 0.99 and cap 5 no finite tail bound exists: JSON has no
    # Infinity token, so the bound prints as null and the text as inf
    for argv, bound in (
        (("epsilon-ball", "--alpha", "3", "--rmax", "0.99", "--cap", "5", "--grid-points", "2"),
         lambda payload: payload["tail_bound"]),
        (("immersion", "--d", "2", "--mu", "1", "--alpha", "3", "--cap", "5",
          "--check-grid", "0.99:2"), lambda payload: payload["check"]["tail_bound"]),
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        payload = json.loads(out, parse_constant=_no_constant)
        assert bound(payload) is None, argv
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and re.search(r"tail bound:? inf\b", out), argv


def test_immersion_check_names_a_huge_mu(capsys):
    # mu = 10^400 is past the float range: one error line that names mu
    code, out, err = run(capsys, "immersion", "--mu", str(10**400), "--alpha", "3", "--cap", "20",
                         "--check-grid", "0.4:1")
    assert code == 1 and out == ""
    assert err.startswith("error: mu=inf: ") and err.count("\n") == 1
    assert "float range" in err and "Traceback" not in err


def _run_python(code, *args, env=None):
    """JSON printed by code in a fresh interpreter that imports the package from src/."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


# Runs in a fresh interpreter: after "import cartanbal", "import cartanbal.cli"
# and each argv run through cli.main, it records which of the watched modules
# (a name, or a top-level package and everything under it) are loaded.  A
# preamble may block imports before the package loads.
_MODULE_PROBE = """
import contextlib, io, json, sys
{preamble}
watched = json.loads(sys.argv[2])

def loaded():
    return sorted(name for name in sys.modules
                  if name in watched or name.partition(".")[0] in watched)

import cartanbal
steps = [["import cartanbal", None, loaded()]]
import cartanbal.cli
steps.append(["import cartanbal.cli", None, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cartanbal.cli.main(argv)
    steps.append([" ".join(argv), code, loaded()])
print(json.dumps(steps))
"""


def _probe_modules(argvs, watched, preamble=""):
    """[step, exit code, loaded watched modules] per step of _MODULE_PROBE."""
    code = _MODULE_PROBE.format(preamble=preamble)
    return _run_python(code, json.dumps(argvs), json.dumps(watched))


def test_exact_path_leaves_numeric_stack_out():
    # exact code loads neither numpy nor scipy, and no numeric module: calabi
    # and epsilon load on first use, hashlib only for --manifest and csv only
    # for --csv; no step loads dataclasses, and only numpy brings inspect
    exact = [
        (["catalog"], 0),
        (["wallach", "--domain", "I:2,3"], 0),
        (["balanced-hartogs", "--domain", "I:2,2", "--mu", "1", "--alpha", "6"], 2),
        (["scan", "--dim-cap", "5"], 0),
        (["corollary-scan", "--dim-cap", "8"], 0),
        (["moment-ratio", "--domain", "IV:5"], 0),
    ]
    exact += [(argv + ["--json"], code) for argv, code in exact]
    immersion = ["immersion", "--mu", "1", "--alpha", "3", "--cap", "10"]
    manifest = ["catalog", "--dim-cap", "5", "--manifest"]
    numeric = ["epsilon-hartogs", "--mu", "1", "--alpha", "3", "--grid", "2x2", "--caps", "8,8"]
    argvs = [argv for argv, _ in exact] + [immersion, manifest, numeric]
    watched = ["numpy", "scipy", "cartanbal.calabi", "cartanbal.epsilon", "hashlib", "csv",
               "dataclasses", "inspect"]
    steps = _probe_modules(argvs, watched)
    assert len(steps) == len(argvs) + 2
    assert steps[:2] == [["import cartanbal", None, []], ["import cartanbal.cli", None, []]]
    for (argv, code), step in zip(exact, steps[2:]):
        assert step == [" ".join(argv), code, []]
    assert steps[-3] == [" ".join(immersion), 0, ["cartanbal.calabi"]]
    assert steps[-2] == [" ".join(manifest), 0, ["cartanbal.calabi", "hashlib"]]
    _, code, loaded = steps[-1]
    assert code == 0
    assert "cartanbal.epsilon" in loaded and "csv" not in loaded
    assert {name.partition(".")[0] for name in loaded} == {
        "cartanbal", "hashlib", "inspect", "numpy"}


def test_numeric_subcommands_run_without_scipy():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    argvs = [
        ["epsilon-hartogs", "--mu", "1", "--alpha", "3", "--grid", "2x2", "--caps", "8,8"],
        ["epsilon-ball", "--d", "2", "--alpha", "3.5", "--cap", "20"],
        ["immersion", "--d", "2", "--mu", "3/2", "--alpha", "4", "--cap", "20",
         "--check-grid", "0.4:3"],
    ]
    steps = _probe_modules(argvs, ["scipy"], preamble='sys.modules["scipy"] = None')
    assert [step[:2] for step in steps[2:]] == [[" ".join(argv), 0] for argv in argvs]


_BLAS_PROBE = """
import contextlib, io, json, os, sys
import cartanbal.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cartanbal.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def test_main_pins_blas_pool_unless_set():
    argv = json.dumps(["epsilon-ball", "--alpha", "3", "--cap", "10"])
    unset = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    assert _run_python(_BLAS_PROBE, argv, env=unset) == [0, "1"]
    preset = dict(unset, OPENBLAS_NUM_THREADS="2")
    assert _run_python(_BLAS_PROBE, argv, env=preset) == [0, "2"]


def test_csv_write_failure_is_an_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "eps.csv")
    code, _, err = run(capsys, "epsilon-ball", "--alpha", "3", "--cap", "10", "--csv", missing)
    assert code == 1
    assert "error" in err and "Traceback" not in err


# Flags per subcommand: (always passed, passed or not).  The required flags
# and the size flags are always passed, so that most draws get past argument
# parsing and none falls back to a large default size.
_FUZZ_COMMANDS = {
    "catalog": (["--dim-cap"], []),
    "wallach": (["--domain"], []),
    "projective": (["--domain", "--beta"], []),
    "projective-hartogs": (["--domain", "--mu", "--alpha"], []),
    "moment": (["--domain", "--s"], []),
    "moment-ratio": (["--domain"], []),
    "balanced-cartan": (["--domain", "--beta"], []),
    "balanced-hartogs": (["--domain", "--mu", "--alpha"], []),
    "scan": (["--dim-cap"], ["--mus", "--alphas", "--extended-alphas"]),
    "corollary-scan": (["--dim-cap"], ["--alphas"]),
    "immersion": (["--mu", "--alpha", "--cap"], ["--d", "--check-grid"]),
    "epsilon-ball": (["--alpha", "--cap"], ["--d", "--rmax", "--grid-points", "--csv"]),
    "epsilon-hartogs": (
        ["--mu", "--alpha", "--grid", "--caps"],
        ["--t-max", "--u-max", "--csv"],
    ),
}
_FUZZ_SWITCHES = ("--json", "--manifest", "--extended-alphas")
_FUZZ_POOL = ("nan", "inf", "-inf", "-1", "0", "1/2", "3", "junk", "")
# well-formed values for structured flags, within the size limits
_FUZZ_SHAPED = {
    "--dim-cap": ("8",),
    "--cap": ("10",),
    "--caps": ("10,10", "3,0", "-1,2"),
    "--grid": ("3x3", "1x2", "0x3"),
    "--check-grid": ("0.4:3", "0.9:2"),
    "--domain": ("I:1,1", "I:2,3", "IV:3"),
    "--mus": ("1/2,1",),
    "--alphas": ("4,11/2", "3,nan"),
    "--d": ("1", "2"),
    "--mu": ("1", "2", "3/2"),
    "--alpha": ("4", "5/2", "2.5"),
    "--beta": ("4/5",),
    "--s": ("1/3",),
    "--rmax": ("0.5",),
    "--t-max": ("0.3",),
    "--u-max": ("0.3",),
}


@st.composite
def _fuzz_argv(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    always, maybe = _FUZZ_COMMANDS[name]
    flags = always + [flag for flag in maybe + ["--json", "--manifest"] if draw(st.booleans())]
    argv = [name]
    for flag in flags:
        if flag in _FUZZ_SWITCHES:
            argv.append(flag)
        else:
            value = draw(st.sampled_from(_FUZZ_POOL + _FUZZ_SHAPED.get(flag, ())))
            argv.append(f"{flag}={value}")
    return argv


@given(argv=_fuzz_argv())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_main_fuzz_exit_contract(argv, tmp_path_factory):
    here = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))  # --csv writes relative paths here
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_every_subcommand_is_fuzzed_and_golden():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(_FUZZ_COMMANDS)
    assert set(_FUZZ_COMMANDS) <= {argv[0] for argv in _GOLDEN_EXACT + _GOLDEN_NUMERIC}


# Golden CLI output, recorded by running this file as a script (see the end).
# Exact cases and --help compare stdout, stderr and exit code byte for byte.
# Numeric cases compare exit code and stderr byte for byte, JSON key order and
# the text of each line with its numbers masked, and every number to 1e-12
# relative; roundoff-level values such as max_rel_error get an absolute floor
# of 1e-12, so BLAS summation order cannot break the test.
_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
_GOLDEN_MODES = ((), ("--json",), ("--manifest",), ("--json", "--manifest"))
_GOLDEN_EXACT = (
    ("catalog", "--dim-cap", "6"),
    ("wallach", "--domain", "I:2,2"),
    ("wallach", "--domain", "IV:5"),
    ("projective", "--domain", "I:2,2", "--beta", "1/2"),
    ("projective", "--domain", "I:2,2", "--beta", "1/8"),
    ("projective-hartogs", "--domain", "I:2,2", "--mu", "4/5", "--alpha", "3"),
    ("projective-hartogs", "--domain", "I:2,2", "--mu", "4/5", "--alpha", "1/4"),
    ("moment", "--domain", "IV:4", "--s", "1/2"),
    ("moment", "--domain", "I:1,1", "--s=-1/2"),
    ("moment", "--domain", "I:1,1", "--s", "-2"),
    ("moment-ratio", "--domain", "IV:4"),
    ("moment-ratio", "--domain", "I:2,3"),
    ("balanced-cartan", "--domain", "II:3", "--beta", "3/4"),
    ("balanced-cartan", "--domain", "II:3", "--beta", "4/5"),
    ("balanced-hartogs", "--domain", "I:1,1", "--mu", "1", "--alpha", "4"),
    ("balanced-hartogs", "--domain", "I:1,1", "--mu", "2", "--alpha", "4"),
    ("balanced-hartogs", "--domain", "I:1,1", "--mu", "1", "--alpha", "2"),
    ("balanced-hartogs", "--domain", "I:2,2", "--mu", "1/3", "--alpha", "6"),
    ("balanced-hartogs", "--domain", "I:1,1", "--mu", "0", "--alpha", "4"),
    ("scan", "--dim-cap", "4"),
    ("scan", "--dim-cap", "2", "--mus", "1,2", "--alphas", "4,11/2", "--extended-alphas"),
    ("corollary-scan", "--dim-cap", "6"),
    ("corollary-scan", "--dim-cap", "4", "--alphas", "4,11/2"),
    ("immersion", "--d", "2", "--mu", "3/2", "--alpha", "4", "--cap", "6"),
    ("wallach", "--domain", "IX:1"),
    ("projective", "--domain", "I:2,2", "--beta", "junk"),
    ("no-such-command",),
)
_GOLDEN_NUMERIC = (
    ("immersion", "--mu", "1", "--alpha", "3", "--cap", "12", "--check-grid", "0.4:3"),
    ("immersion", "--d", "2", "--mu", "2", "--alpha", "5", "--cap", "8", "--check-grid", "0.3:2"),
    ("epsilon-ball", "--alpha", "3", "--rmax", "0.5", "--cap", "30", "--grid-points", "4", "--csv", "eps.csv"),
    ("epsilon-ball", "--d", "2", "--alpha", "4", "--cap", "20", "--grid-points", "3"),
    ("epsilon-ball", "--alpha", "0.5", "--cap", "10"),
    ("epsilon-hartogs", "--mu", "2", "--alpha", "4", "--grid", "2x2", "--caps", "12,12", "--csv", "eps.csv"),
    ("epsilon-hartogs", "--mu", "1", "--alpha", "3", "--grid", "2x3", "--caps", "12,12"),
    ("epsilon-hartogs", "--mu", "nan", "--alpha", "3", "--grid", "2x2", "--caps", "4,4"),
)
_GOLDEN_HELP = ((), ("--help",), ("--version",)) + tuple((name, "--help") for name in sorted(_FUZZ_COMMANDS))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _golden_battery():
    exact = [case + mode for case in _GOLDEN_EXACT for mode in _GOLDEN_MODES]
    numeric = [case + mode for case in _GOLDEN_NUMERIC for mode in _GOLDEN_MODES]
    return exact + [list(argv) for argv in _GOLDEN_HELP], numeric


def _capture(argv) -> dict:
    """Run main in-process; the working directory receives any --csv file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    record = {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--csv" in argv and os.path.exists("eps.csv"):
        with open("eps.csv") as fh:
            record["csv"] = fh.read()
        os.remove("eps.csv")
    return record


def _close(got: str, want: str) -> bool:
    return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-12)


def _same_json(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and _close(got, want), (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def _same_lines(got: str, want: str, where: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), where
    for g, w in zip(got_lines, want_lines):
        assert _NUMBER.sub("#", g) == _NUMBER.sub("#", w), (where, g, w)
        # printed values carry 4 to 12 significant digits
        pairs = zip(_NUMBER.findall(g), _NUMBER.findall(w))
        assert all(
            math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12) for a, b in pairs
        ), (where, g, w)


def _same_numeric(got: dict, want: dict) -> None:
    """Assert that a numeric case's capture matches its stored record."""
    where = " ".join(want["argv"])
    assert (got["code"], got["stderr"], "csv" in got) == (
        want["code"], want["stderr"], "csv" in want
    ), where
    if "--json" in want["argv"] and want["code"] != 1:
        _same_json(json.loads(got["stdout"]), json.loads(want["stdout"]), where)
    else:
        _same_lines(got["stdout"], want["stdout"], where)
    if "csv" in want:
        _same_lines(got["csv"], want["csv"], where + " (csv)")


def _kept_if_same(got: dict, stored: dict | None) -> dict:
    """The stored numeric record where got still matches it, so that
    regenerating the file leaves the last digits of unchanged cases alone."""
    if stored is None:
        return got
    try:
        _same_numeric(got, stored)
    except AssertionError:
        return got
    return stored


def test_golden_regeneration_keeps_matching_numeric_cases():
    stored = {"argv": ["epsilon-hartogs"], "code": 0, "stdout": "spread: 0.0714285714285714\n",
              "stderr": ""}
    close = dict(stored, stdout="spread: 0.0714285714285715\n")
    moved = dict(stored, stdout="spread: 0.0714285\n")
    assert _kept_if_same(close, stored) is stored
    assert _kept_if_same(moved, stored) is moved
    assert _kept_if_same(close, None) is close


def test_cli_golden_output(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    monkeypatch.chdir(tmp_path)
    golden = json.loads(_GOLDEN_PATH.read_text())
    exact, numeric = _golden_battery()
    assert [r["argv"] for r in golden["exact"]] == [list(a) for a in exact]
    assert [r["argv"] for r in golden["numeric"]] == [list(a) for a in numeric]
    for want in golden["exact"]:
        assert _capture(want["argv"]) == want
    for want in golden["numeric"]:
        _same_numeric(_capture(want["argv"]), want)


# sha256 of the stdout of the default scan grids at dim cap 27.  Unlike the
# golden file, these pin the large outputs, so that a change to how verdicts
# are computed cannot move a byte of any row.
_SCAN_DIGESTS = {
    ("scan", "--dim-cap", "27", "--json"):
        "9658f7811c9c6b1f77bd3729208554b93f01dd7f1cdd003508b841e195d24a7b",
    ("scan", "--dim-cap", "27"):
        "6bdd9d97f968166e5cd5a49d07d1dbfa8b438d6d2feaa86e89292a24c9582253",
    ("scan", "--dim-cap", "27", "--extended-alphas", "--json"):
        "544d024e3cea15183910afeb8a91989691d5291d9d34197f25dca3b14e522286",
    ("corollary-scan", "--dim-cap", "27", "--json"):
        "f09cd8820998b7b2ea30134510aa9ea7534310d99a4abc65877aecf588670454",
}


def test_scan_outputs_match_pinned_digests(capsys):
    for argv, digest in _SCAN_DIGESTS.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


if __name__ == "__main__":
    # Regenerate the golden file: PYTHONPATH=src python tests/test_cli.py
    import tempfile

    os.environ["COLUMNS"] = "80"
    exact, numeric = _golden_battery()
    here = os.getcwd()
    # a stored numeric case whose new output still matches it is kept as stored
    stored = ({tuple(r["argv"]): r for r in json.loads(_GOLDEN_PATH.read_text())["numeric"]}
              if _GOLDEN_PATH.exists() else {})
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        golden = {
            "exact": [_capture(argv) for argv in exact],
            "numeric": [_kept_if_same(_capture(argv), stored.get(tuple(argv))) for argv in numeric],
        }
        os.chdir(here)
    _GOLDEN_PATH.parent.mkdir(exist_ok=True)
    _GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
