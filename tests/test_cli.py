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
from cartanbal.exactnum import FactoredRational


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
    fr = FactoredRational.from_text(payload["round_trip"])
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


def test_norms_outside_the_float_range_are_an_error(capsys):
    # these printed "min epsilon: nan" and exited 0 after numpy overflow
    # warnings, which the suite's filterwarnings setting turns into errors
    for argv in (
        ("epsilon-ball", "--alpha", "300.5", "--cap", "24999", "--grid-points", "5"),
        ("epsilon-hartogs", "--mu", "5", "--alpha", "300", "--caps", "150,150", "--grid", "2x2"),
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


def test_oversized_check_grid_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "immersion", "--mu", "1", "--alpha", "3", "--check-grid", "0.5:1000")
    assert code == 1 and out == ""
    assert "check_grid=0.5:1000 needs 1,000,000 samples" in err
    assert time.perf_counter() - start < 1.0


# Runs in a fresh interpreter: the package and each exact subcommand must load
# neither numpy nor scipy; a numeric subcommand then loads numpy and still no
# scipy module: numpy is the only runtime dependency.  A preamble may block
# imports before the package loads.
_NUMERIC_STACK_PROBE = """
import contextlib, io, json, sys
{preamble}

def numeric_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] in ("numpy", "scipy"))

import cartanbal
steps = [["import cartanbal", None, numeric_modules()]]
import cartanbal.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cartanbal.cli.main(argv)
    steps.append([" ".join(argv), code, numeric_modules()])
print(json.dumps(steps))
"""


def _probe_numeric_stack(argvs, preamble=""):
    """[argv, exit code, loaded numpy/scipy modules] per step of _NUMERIC_STACK_PROBE."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMERIC_STACK_PROBE.format(preamble=preamble), json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_exact_path_leaves_numeric_stack_out():
    exact = [
        (["catalog"], 0),
        (["wallach", "--domain", "I:2,3"], 0),
        (["balanced-hartogs", "--domain", "I:2,2", "--mu", "1", "--alpha", "6"], 2),
        (["scan", "--dim-cap", "5"], 0),
        (["corollary-scan", "--dim-cap", "8"], 0),
        (["moment-ratio", "--domain", "IV:5"], 0),
        (["immersion", "--mu", "1", "--alpha", "3", "--cap", "10"], 0),
    ]
    numeric = ["epsilon-hartogs", "--mu", "1", "--alpha", "3", "--grid", "2x2", "--caps", "8,8"]
    argvs = [argv for argv, _ in exact] + [numeric]
    steps = _probe_numeric_stack(argvs)
    assert len(steps) == len(argvs) + 1
    assert steps[0] == ["import cartanbal", None, []]
    for (argv, code), step in zip(exact, steps[1:]):
        assert step == [" ".join(argv), code, []]
    _, code, loaded = steps[-1]
    assert code == 0
    assert {name.partition(".")[0] for name in loaded} == {"numpy"}


def test_numeric_subcommands_run_without_scipy():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    argvs = [
        ["epsilon-hartogs", "--mu", "1", "--alpha", "3", "--grid", "2x2", "--caps", "8,8"],
        ["epsilon-ball", "--d", "2", "--alpha", "3.5", "--cap", "20"],
        ["immersion", "--d", "2", "--mu", "3/2", "--alpha", "4", "--cap", "20",
         "--check-grid", "0.4:3"],
    ]
    steps = _probe_numeric_stack(argvs, preamble='sys.modules["scipy"] = None')
    assert [step[:2] for step in steps[1:]] == [[" ".join(argv), 0] for argv in argvs]


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
@settings(max_examples=100, deadline=None)
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
        got = _capture(want["argv"])
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
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        golden = {
            "exact": [_capture(argv) for argv in exact],
            "numeric": [_capture(argv) for argv in numeric],
        }
        os.chdir(here)
    _GOLDEN_PATH.parent.mkdir(exist_ok=True)
    _GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
