from fractions import Fraction as F

import pytest

from cartanbal import cli
from cartanbal.balanced import (
    REASON_ALPHA,
    REASON_ALPHA_MU,
    REASON_M_DEPENDENCE,
    REASON_OK,
    HartogsSpec,
    balanced_scan,
    cartan_balanced,
    corollary_scan,
    default_scan_alphas,
    default_scan_mus,
    final_quantity,
    hartogs_balanced,
    hartogs_necessary,
    norm_chain_ratio,
)
from cartanbal.catalog import ball, enumerate_catalog, make_domain, parse_domain
from cartanbal.errors import NonpositiveParameterError, PreconditionError
from cartanbal.exactnum import FactoredRational


def test_spec_validation():
    spec = HartogsSpec(ball(1), 2, 4)
    assert spec.mu == F(2) and isinstance(spec.mu, F)
    assert spec.alpha == F(4) and isinstance(spec.alpha, F)
    with pytest.raises(NonpositiveParameterError):
        HartogsSpec(ball(1), 0, 4)
    with pytest.raises(NonpositiveParameterError):
        HartogsSpec(ball(1), 1, -2)


def test_cartan_balanced_threshold():
    # strict inequality against (gamma-1)/gamma on every entry
    for dom in enumerate_catalog(27):
        threshold = F(dom.gamma - 1, dom.gamma)
        assert not cartan_balanced(dom, threshold)
        assert cartan_balanced(dom, threshold + F(1, 1000))
        assert not cartan_balanced(dom, threshold - F(1, 1000))
        assert cartan_balanced(dom, F(1))
    with pytest.raises(NonpositiveParameterError):
        cartan_balanced(ball(1), F(-1, 2))


def test_final_quantity_frozen_examples():
    fq = final_quantity(HartogsSpec(ball(1), F(2), F(4)))
    assert fq == FactoredRational(1, [(1, 3)], [(2, 7)], var="m")
    for m in range(6):
        assert fq.eval_at(m) == F(m + 3, 2 * m + 7)
    fq = final_quantity(HartogsSpec(parse_domain("IV:4"), F(1), F(6)))
    assert fq == FactoredRational(1, [(1, 2)], [(1, 4)], var="m")


def test_final_quantity_constant_for_unit_weight_balls():
    for d in (1, 2, 3, 5):
        for alpha in (F(3, 2), F(4), F(17, 3)):
            fq = final_quantity(HartogsSpec(ball(d), F(1), alpha))
            assert fq.is_constant() == (True, F(1))


def test_final_quantity_degrees():
    # numerator carries d factors, denominator dim factors, before cancellation
    dom = parse_domain("I:2,2")
    fq = final_quantity(HartogsSpec(dom, F(5, 7), F(19, 2)))
    assert fq.numer_degree <= dom.dim
    assert fq.denom_degree <= dom.dim
    assert fq.numer_degree == fq.denom_degree  # cancellation is multiset-wise


def test_norm_chain_ratio_preconditions():
    with pytest.raises(PreconditionError, match="alpha"):
        norm_chain_ratio(HartogsSpec(ball(1), F(1), F(2)))  # alpha = d+1
    with pytest.raises(PreconditionError, match="alpha\\*mu"):
        norm_chain_ratio(HartogsSpec(parse_domain("I:2,2"), F(1, 2), F(6)))


def test_norm_chain_ratio_equals_final_quantity_step():
    # R(m) = FQ(m+1)/FQ(m) as exact rational functions, on every (domain, mu)
    # of the default scan grid; this identity is why a verdict may test the
    # constancy of FQ alone
    for dom in enumerate_catalog(27):
        alpha = max(default_scan_alphas(dom))
        for mu in default_scan_mus(dom):
            spec = HartogsSpec(dom, mu, alpha)
            assert hartogs_necessary(spec) == (True, True), spec.label
            fq = final_quantity(spec)
            stepped = fq.compose_affine(1, 1)
            assert norm_chain_ratio(spec) == stepped / fq, spec.label


def test_norm_chain_ratio_balanced_cases():
    for d in (1, 2, 4):
        spec = HartogsSpec(ball(d), F(1), F(d + 2))
        assert norm_chain_ratio(spec).is_constant() == (True, F(1))


def test_hartogs_balanced_reasons():
    v = hartogs_balanced(HartogsSpec(ball(1), F(1), F(3)))
    assert v.balanced and v.reason == REASON_OK and v.witness_m is None

    v = hartogs_balanced(HartogsSpec(ball(1), F(1), F(2)))
    assert not v.balanced and v.reason == REASON_ALPHA

    # alpha clears d+1 but alpha*mu stays at or below gamma-1
    v = hartogs_balanced(HartogsSpec(parse_domain("I:2,2"), F(1, 3), F(6)))
    assert not v.balanced and v.reason == REASON_ALPHA_MU

    v = hartogs_balanced(HartogsSpec(ball(1), F(2), F(4)))
    assert not v.balanced and v.reason == REASON_M_DEPENDENCE
    assert v.witness_m == 1
    assert v.value_at_0 == F(3, 7)
    assert v.value_at_witness == F(4, 9)
    assert v.value_at_0 != v.value_at_witness


def test_verdict_carries_chain_ratio_constancy():
    # the verdict's ratio_constant is the chain ratio's constancy, and None
    # exactly when a necessary inequality fails and the ratio is undefined;
    # an m_dependence witness is the first m where FQ leaves FQ(0), and the
    # verdict carries FQ's values at 0 and there
    for dom in enumerate_catalog(6):
        for mu in (F(1, 2), F(1), F(2)):
            for alpha in (F(dom.dim, 2), dom.dim + F(3, 2), F(2 * dom.dim + 3)):
                spec = HartogsSpec(dom, mu, alpha)
                verdict = hartogs_balanced(spec)
                if not all(hartogs_necessary(spec)):
                    assert verdict.ratio_constant is None
                    continue
                assert verdict.ratio_constant == norm_chain_ratio(spec).is_constant()[0]
                assert verdict.ratio_constant == verdict.balanced
                if verdict.balanced:
                    continue
                fq = final_quantity(spec)
                value_0 = fq.eval_at(0)
                moves = (m for m in range(1, dom.dim + 2) if fq.eval_at(m) != value_0)
                first_move = next(moves, None)
                assert verdict.witness_m == first_move, spec.label
                assert verdict.value_at_0 == value_0, spec.label
                assert verdict.value_at_witness == fq.eval_at(first_move), spec.label


def test_verdicts_never_build_the_chain_ratio(monkeypatch, capsys):
    # a verdict builds final_quantity and nothing else; the chain ratio, the
    # moment ratio and FactoredRational algebra (products, quotients,
    # substitutions) are the first-principles route of the tests only
    argvs = (
        ["moment", "--domain", "IV:4", "--s", "1/2"],
        ["moment-ratio", "--domain", "VI", "--json"],
        ["balanced-hartogs", "--domain", "I:2,2", "--mu", "4/5", "--alpha", "6"],
    )

    def run_cli(argv):
        return cli.main(argv), capsys.readouterr().out

    expected_scan, expected_corollary = balanced_scan(8), corollary_scan(8)
    expected_cli = [run_cli(argv) for argv in argvs]
    assert [code for code, _ in expected_cli] == [0, 0, 2]

    def refuse(*args, **kwargs):
        raise AssertionError("a request ran the first-principles route")

    monkeypatch.setattr("cartanbal.balanced.norm_chain_ratio", refuse)
    monkeypatch.setattr("cartanbal.balanced.moment_ratio", refuse)
    for method in ("__mul__", "__truediv__", "reciprocal", "compose_affine"):
        monkeypatch.setattr(FactoredRational, method, refuse)
    specs = {
        REASON_OK: HartogsSpec(ball(2), F(1), F(4)),
        REASON_ALPHA: HartogsSpec(ball(1), F(1), F(2)),
        REASON_ALPHA_MU: HartogsSpec(parse_domain("I:2,2"), F(1, 3), F(6)),
        REASON_M_DEPENDENCE: HartogsSpec(make_domain("VI"), F(1), F(30)),
    }
    for reason, spec in specs.items():
        assert hartogs_balanced(spec).reason == reason, spec.label
    assert balanced_scan(8) == expected_scan
    report = corollary_scan(8)
    assert report == expected_corollary and report.all_ok
    assert [run_cli(argv) for argv in argvs] == expected_cli


def test_lemma_order_of_reasons():
    # when both necessary inequalities fail, the alpha reason is reported
    v = hartogs_balanced(HartogsSpec(parse_domain("I:2,2"), F(4, 5), F(2)))
    assert not v.balanced and v.reason == REASON_ALPHA


def test_necessary_inequalities():
    spec = HartogsSpec(parse_domain("I:2,2"), F(1, 3), F(6))
    assert hartogs_necessary(spec) == (True, False)
    spec = HartogsSpec(ball(1), F(1), F(3))
    assert hartogs_necessary(spec) == (True, True)
    spec = HartogsSpec(ball(1), F(1), F(3, 2))
    assert hartogs_necessary(spec) == (False, True)


def test_characterization_small_scan():
    rows = balanced_scan(10, extended_alphas=True)
    assert rows == sorted(rows, key=lambda r: (r.domain.label, r.mu, r.alpha))
    for row in rows:
        expected = (
            row.domain.is_ball
            and row.mu == 1
            and row.alpha > row.domain.dim + 1
        )
        assert row.balanced == expected, row
        assert row.closed_form == row.balanced
        if row.ratio_constant is not None:
            assert row.ratio_constant == row.balanced
        if not row.necessary_ok:
            assert row.reason in (REASON_ALPHA, REASON_ALPHA_MU)
        if row.reason == REASON_M_DEPENDENCE:
            assert row.witness_m is not None and row.witness_m >= 1
        else:
            assert row.witness_m is None


def test_scan_explicit_grids():
    rows = balanced_scan(2, mus=[F(1)], alphas=[F(4)])
    assert [r.domain.label for r in rows] == sorted(
        d.label for d in enumerate_catalog(2)
    )
    for row in rows:
        assert row.mu == 1 and row.alpha == 4
        assert row.balanced == (row.domain.is_ball and row.domain.dim + 1 < 4)


def test_scan_dim_cap_limit():
    # alpha = 1/2 fails the necessary inequality, so each row costs no level quantity
    rows = balanced_scan(100, mus=[F(1)], alphas=[F(1, 2)])
    assert len(rows) == len(enumerate_catalog(100))
    with pytest.raises(ValueError, match="dim_cap=101 needs"):
        balanced_scan(101)


def test_type_three_rank_one_matches_ball():
    # III:2 has a=4 but rank 1; the a-dependence drops out of every formula
    for mu, alpha in [(F(1), F(4)), (F(2), F(4)), (F(3, 4), F(11, 2))]:
        s3 = HartogsSpec(make_domain("III", (2,)), mu, alpha)
        s1 = HartogsSpec(ball(1), mu, alpha)
        assert final_quantity(s3) == final_quantity(s1)
        v3, v1 = hartogs_balanced(s3), hartogs_balanced(s1)
        assert (v3.balanced, v3.reason, v3.witness_m) == (
            v1.balanced,
            v1.reason,
            v1.witness_m,
        )


def test_unit_mu_hartogs_over_ball_is_higher_ball():
    # the Hartogs domain over ball(d) with mu=1 is ball(d+1); balancedness of
    # the weight alpha matches the threshold rule there with gamma = d+2
    for d in (1, 2, 3):
        for alpha in (F(d + 1), F(d + 1) + F(1, 9), F(d + 3), F(2 * d + 5, 2)):
            lhs = hartogs_balanced(HartogsSpec(ball(d), F(1), alpha)).balanced
            rhs = cartan_balanced(ball(d + 1), alpha / (d + 2))
            assert lhs == rhs, (d, alpha)


def test_corollary_scan_all_ok():
    report = corollary_scan(10)
    assert report.all_ok
    assert report.dim_cap == 10
    by_label = {}
    for row in report.rows:
        by_label.setdefault(row.domain.label, []).append(row)
    for dom in enumerate_catalog(10):
        rows = by_label[dom.label]
        if dom.is_ball:
            assert len(rows) == 1 and rows[0].excluded
        else:
            assert len(rows) == 3
            assert all(r.projectively_induced and not r.balanced for r in rows)
            assert all(r.error is None for r in rows)
            alphas = [r.alpha for r in rows]
            assert alphas[1] == alphas[0] + 1 and alphas[2] == alphas[0] + 10


def test_corollary_scan_explicit_alphas():
    report = corollary_scan(6, alphas=[F(20)])
    non_ball = [r for r in report.rows if not r.excluded]
    assert all(r.alpha == 20 for r in non_ball)
    assert report.all_ok


def test_corollary_scan_requires_nontrivial_cap():
    with pytest.raises(PreconditionError):
        corollary_scan(1)


def test_scan_row_dict_shape():
    row = balanced_scan(1, mus=[F(2)], alphas=[F(4)])[0]
    d = row.as_dict()
    assert set(d) == {
        "domain",
        "mu",
        "alpha",
        "balanced",
        "reason",
        "witness_m",
        "closed_form",
        "necessary_ok",
        "ratio_constant",
    }
    assert d["mu"] == "2" and d["alpha"] == "4"
