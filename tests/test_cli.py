import csv
import json
import math

from cartanbal.cli import catalog_hash, main
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
