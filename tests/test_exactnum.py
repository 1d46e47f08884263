import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanbal.errors import PoleError
from cartanbal.exactnum import (
    FactoredRational,
    LinearFactor,
    parse_rational,
    rising,
)


def expand_factors(factors):
    """Coefficients (low degree first) of the product of linear factors.

    Independent expansion route used to cross-check the multiset constancy
    decision by polynomial cross-multiplication.
    """
    coeffs = [F(1)]
    for f in factors:
        nxt = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * f.intercept
            nxt[i + 1] += c * f.slope
        coeffs = nxt
    return coeffs


def test_parse_rational():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("6/4") == F(3, 2)
    assert parse_rational(" 5 / 2 ") == F(5, 2)
    assert parse_rational(str(F(-22, 7))) == F(-22, 7)


def test_parse_rational_rejects():
    for bad in ["0.5", "1.5/2", "", "1/0", "1/2/3", "a", "1e3", "+3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rising():
    assert rising(F(3), 0) == 1
    assert rising(F(3), 4) == 3 * 4 * 5 * 6
    assert rising(F(1, 2), 2) == F(3, 4)
    with pytest.raises(ValueError):
        rising(F(1), -1)


def test_linear_factor():
    f = LinearFactor(2, 3)
    assert f.eval_at(F(1, 2)) == 4
    assert f.render("m") == "2m+3"
    assert LinearFactor(1, 0).render("s") == "s"
    assert LinearFactor(1, -2).render("s") == "s-2"


def test_canonicalization_extracts_constants():
    # (x/2 + 3/2) == (1/2)(x + 3)
    fr = FactoredRational(1, [(F(1, 2), F(3, 2))], [])
    assert fr.scale == F(1, 2)
    assert fr.numer == (LinearFactor(1, 3),)
    assert fr.eval_at(1) == 2


def test_cancellation():
    fr = FactoredRational(5, [(1, 1), (1, 2)], [(1, 2), (1, 1)])
    assert fr.is_constant() == (True, F(5))
    # proportional factors cancel up to scale: (2x+2)/(x+1) == 2
    fr = FactoredRational(1, [(2, 2)], [(1, 1)])
    assert fr.is_constant() == (True, F(2))


def test_zero_scale_forbidden():
    with pytest.raises(ValueError):
        FactoredRational(0, [(1, 1)], [])


def test_multiplication_and_division():
    f = FactoredRational(2, [(1, 1)], [(1, 2)])
    g = FactoredRational(3, [(1, 2)], [(1, 1)])
    assert (f * g).is_constant() == (True, F(6))
    q = f / g
    assert q.eval_at(2) == F(3, 8)
    assert q.eval_at(2) == f.eval_at(2) / g.eval_at(2)
    r = f.reciprocal()
    assert r.eval_at(5) == 1 / f.eval_at(5)


def test_compose_affine():
    # 1/(s+1) with s -> 2m+3 becomes 1/(2m+4) = (1/2)/(m+2)
    fr = FactoredRational(1, [], [(1, 1)], var="s")
    comp = fr.compose_affine(2, 3, var="m")
    assert comp.scale == F(1, 2)
    assert comp.denom == (LinearFactor(1, 2),)
    assert comp.eval_at(0) == F(1, 4)
    assert comp.var == "m"


def test_eval_at_pole():
    fr = FactoredRational(1, [], [(1, 1)])
    with pytest.raises(PoleError):
        fr.eval_at(-1)
    assert fr.eval_at(0) == 1


def test_is_constant_nontrivial():
    fr = FactoredRational(1, [(1, 1)], [(1, 2)])
    constant, value = fr.is_constant()
    assert not constant and value is None


def test_degrees():
    fr = FactoredRational(7, [(1, 1), (2, 5)], [(1, 2)])
    assert fr.numer_degree == 2
    assert fr.denom_degree == 1


def test_text_round_trip():
    fr = FactoredRational(F(-3, 7), [(1, 1), (1, 1), (2, 5)], [(1, 2)], var="m")
    text = fr.to_text()
    back = FactoredRational.from_text(text)
    assert back == fr
    assert back.var == fr.var
    assert str(back) == str(fr)


def test_equality_ignores_var():
    f = FactoredRational(2, [(1, 1)], [], var="s")
    g = FactoredRational(2, [(1, 1)], [], var="m")
    assert f == g
    assert hash(f) == hash(g)


def test_expand_factors():
    # (x+1)(x+2) = x^2 + 3x + 2, coefficients listed low degree first
    coeffs = expand_factors([LinearFactor(1, 1), LinearFactor(1, 2)])
    assert coeffs == [F(2), F(3), F(1)]
    assert expand_factors([]) == [F(1)]


# ---------------------------------------------------------------------------
# property tests

_small = st.integers(min_value=-4, max_value=4)
# integer pairs take the constructor's int path; rational and negative
# coefficients with small denominators take the Fraction splitting path
_denominator = st.integers(min_value=1, max_value=6)
_nonzero = st.integers(min_value=-12, max_value=12).filter(bool)
_factor = st.one_of(
    st.tuples(_small.filter(bool), _small),
    st.tuples(
        st.builds(F, _nonzero, _denominator),
        st.builds(F, st.integers(min_value=-12, max_value=12), _denominator),
    ),
)
_factors = st.lists(_factor, max_size=4)
_scales = st.fractions(
    min_value=F(-8), max_value=F(8), max_denominator=6
).filter(lambda q: q != 0)


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@given(scale=_scales, numer=_factors, denom=_factors)
@settings(max_examples=150)
def test_canonical_form_preserves_value(scale, numer, denom):
    fr = FactoredRational(scale, numer, denom)
    # cross-multiplication: scale * prod(numer) * prod(fr.denom)
    # must equal fr.scale * prod(fr.numer) * prod(denom) as polynomials
    left = [scale * c for c in _poly_mul(
        expand_factors([LinearFactor(*f) for f in numer]),
        expand_factors(list(fr.denom)),
    )]
    right = [fr.scale * c for c in _poly_mul(
        expand_factors(list(fr.numer)),
        expand_factors([LinearFactor(*f) for f in denom]),
    )]
    width = max(len(left), len(right))
    left += [F(0)] * (width - len(left))
    right += [F(0)] * (width - len(right))
    assert left == right


@given(scale=_scales, numer=_factors, denom=_factors)
@settings(max_examples=150)
def test_constancy_matches_pointwise_evaluation(scale, numer, denom):
    fr = FactoredRational(scale, numer, denom)
    constant, value = fr.is_constant()
    # evaluate at max degree + 2 points, skipping poles; a rational function
    # of that degree which is constant there is constant everywhere
    degree = max(fr.numer_degree, fr.denom_degree)
    values = []
    x = F(0)
    while len(values) < degree + 2:
        try:
            values.append(fr.eval_at(x))
        except PoleError:
            pass
        x += F(1, 3)
    if constant:
        assert all(v == value for v in values)
    else:
        assert len(set(values)) > 1


@given(
    s1=_scales, n1=_factors, d1=_factors, s2=_scales, n2=_factors, d2=_factors
)
@settings(max_examples=80)
def test_product_evaluates_pointwise(s1, n1, d1, s2, n2, d2):
    f = FactoredRational(s1, n1, d1)
    g = FactoredRational(s2, n2, d2)
    prod = f * g
    quot = f / g
    for x in (F(7, 3), F(-9, 4), F(13)):
        try:
            fx, gx = f.eval_at(x), g.eval_at(x)
            assert prod.eval_at(x) == fx * gx
            if gx != 0:
                assert quot.eval_at(x) == fx / gx
        except PoleError:
            pass


@given(scale=_scales, numer=_factors, denom=_factors, coeff=_scales, shift=_scales)
@settings(max_examples=80)
def test_compose_affine_evaluates_pointwise(scale, numer, denom, coeff, shift):
    fr = FactoredRational(scale, numer, denom)
    comp = fr.compose_affine(coeff, shift)
    for x in (F(0), F(5, 2), F(-3)):
        try:
            assert comp.eval_at(x) == fr.eval_at(coeff * x + shift)
        except PoleError:
            pass


@given(scale=_scales, numer=_factors, denom=_factors)
@settings(max_examples=80)
def test_text_round_trip_property(scale, numer, denom):
    fr = FactoredRational(scale, numer, denom)
    assert FactoredRational.from_text(fr.to_text()) == fr


def _assert_canonical(fr):
    for factors in (fr.numer, fr.denom):
        assert list(factors) == sorted(factors)
        for f in factors:
            assert isinstance(f, LinearFactor)
            assert type(f.slope) is int and type(f.intercept) is int
            assert f.slope > 0 and math.gcd(f.slope, f.intercept) == 1
    assert not set(fr.numer) & set(fr.denom)
    assert isinstance(fr.scale, F)


@given(scale=_scales, numer=_factors, denom=_factors)
@settings(max_examples=150)
def test_factors_are_primitive_integer_pairs(scale, numer, denom):
    _assert_canonical(FactoredRational(scale, numer, denom))


@given(
    s1=_scales, n1=_factors, d1=_factors, s2=_scales, n2=_factors, d2=_factors
)
@settings(max_examples=80)
def test_division_is_product_with_reciprocal(s1, n1, d1, s2, n2, d2):
    f = FactoredRational(s1, n1, d1)
    g = FactoredRational(s2, n2, d2)
    quot, prod = f / g, f * g.reciprocal()
    assert (quot.scale, quot.numer, quot.denom) == (prod.scale, prod.numer, prod.denom)
    _assert_canonical(quot)
    # normalizing already normalized factors again gives the same value as
    # normalizing the raw factors once
    assert quot == FactoredRational(s1 / s2, n1 + d2, d1 + n2)
    assert f * g == FactoredRational(s1 * s2, n1 + n2, d1 + d2)


@given(scale=_scales, numer=_factors, denom=_factors, coeff=_scales, shift=_scales)
@settings(max_examples=80)
def test_compose_affine_matches_fresh_construction(scale, numer, denom, coeff, shift):
    fr = FactoredRational(scale, numer, denom)
    comp = fr.compose_affine(coeff, shift)
    _assert_canonical(comp)

    def sub(factors):
        return [(F(p) * coeff, F(p) * shift + q) for p, q in factors]

    assert comp == FactoredRational(scale, sub(numer), sub(denom))
