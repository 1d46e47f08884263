import pytest

from cartanbal.catalog import (
    CartanDomain,
    Family,
    ball,
    enumerate_catalog,
    make_domain,
    parse_domain,
)
from cartanbal.errors import DomainParseError, InvalidSizeError


def test_family_values():
    assert [f.value for f in Family] == ["I", "II", "III", "IV", "V", "VI"]
    assert Family("I").size_count == 2
    assert Family("IV").size_count == 1
    assert Family("V").size_count == 0
    assert Family("VI").size_count == 0


def test_type_one_invariants():
    dom = make_domain("I", (2, 3))
    assert (dom.r, dom.a, dom.b) == (2, 2, 1)
    assert dom.gamma == 5
    assert dom.dim == 6
    dom = make_domain("I", (3, 3))
    assert (dom.r, dom.a, dom.b) == (3, 2, 0)
    assert dom.gamma == 6
    assert dom.dim == 9
    dom = make_domain("I", (1, 4))
    assert (dom.r, dom.a, dom.b) == (1, 2, 3)
    assert dom.gamma == 5
    assert dom.dim == 4


def test_type_two_invariants():
    dom = make_domain("II", (4,))
    assert (dom.r, dom.a, dom.b) == (4, 1, 0)
    assert dom.gamma == 5
    assert dom.dim == 10
    assert make_domain("II", (1,)).dim == 1
    assert make_domain("II", (1,)).is_ball


def test_type_three_invariants():
    # r = floor(n/2), a = 4, b = 0 for even n and 2 for odd n
    dom = make_domain("III", (4,))
    assert (dom.r, dom.a, dom.b) == (2, 4, 0)
    assert dom.dim == 6
    dom = make_domain("III", (5,))
    assert (dom.r, dom.a, dom.b) == (2, 4, 2)
    assert dom.dim == 10
    # genus follows the definition (r-1)a+b+2 = 2(n-1) for every n
    for n in range(2, 9):
        dom = make_domain("III", (n,))
        assert dom.gamma == 2 * (n - 1)


def test_type_four_invariants():
    dom = make_domain("IV", (5,))
    assert (dom.r, dom.a, dom.b) == (2, 3, 0)
    assert dom.gamma == 5
    assert dom.dim == 5
    # IV:3 and II:2 share (r,a,b) and hence all invariants
    assert make_domain("IV", (3,)).gamma == make_domain("II", (2,)).gamma == 3


def test_exceptional_invariants():
    v = make_domain("V")
    assert (v.r, v.a, v.b, v.gamma, v.dim) == (2, 6, 4, 12, 16)
    vi = make_domain("VI")
    assert (vi.r, vi.a, vi.b, vi.gamma, vi.dim) == (3, 8, 0, 18, 27)


def test_identities_hold_across_catalog():
    for dom in enumerate_catalog(27):
        assert dom.gamma == (dom.r - 1) * dom.a + dom.b + 2
        assert dom.dim == dom.r * (dom.b + 1) + dom.a * dom.r * (dom.r - 1) // 2
        assert dom.is_ball == (dom.r == 1)


def test_balls():
    for d in range(1, 6):
        dom = ball(d)
        assert dom == make_domain("I", (1, d))
        assert dom.dim == d
        assert dom.gamma == d + 1
        assert dom.is_ball
    # the rank-one entries of other families are balls too
    assert make_domain("III", (2,)).is_ball
    assert make_domain("III", (3,)).is_ball
    assert not make_domain("III", (4,)).is_ball
    assert not make_domain("IV", (3,)).is_ball


def test_invalid_sizes():
    with pytest.raises(InvalidSizeError):
        make_domain("I", (3, 2))  # needs m <= n
    with pytest.raises(InvalidSizeError):
        make_domain("I", (0, 2))
    with pytest.raises(InvalidSizeError):
        make_domain("II", (0,))
    with pytest.raises(InvalidSizeError):
        make_domain("III", (1,))
    with pytest.raises(InvalidSizeError):
        make_domain("IV", (2,))
    with pytest.raises(InvalidSizeError):
        make_domain("I", (2,))  # wrong arity
    with pytest.raises(InvalidSizeError):
        make_domain("V", (3,))
    with pytest.raises(InvalidSizeError, match="ball dimension"):
        ball(0)


def test_parse_domain_round_trip():
    for text in ["I:2,3", "II:4", "III:5", "IV:7", "V", "VI"]:
        dom = parse_domain(text)
        assert dom.label == text
        assert parse_domain(dom.label) == dom


def test_parse_domain_errors():
    # malformed text: family or size arity does not match the syntax
    for bad in ["", "junk", "I", "I:2", "I:2,3,4", "VII:1", "I:a,b", "V:1"]:
        with pytest.raises(DomainParseError):
            parse_domain(bad)
    # well-formed text with an out-of-range size
    for bad in ["IV:2", "III:1", "I:3,2"]:
        with pytest.raises(InvalidSizeError):
            parse_domain(bad)


def test_enumerate_catalog_contents():
    doms = enumerate_catalog(27)
    assert len(doms) == 89
    assert all(dom.dim <= 27 for dom in doms)
    labels = [dom.label for dom in doms]
    assert len(set(labels)) == len(labels)
    assert "V" in labels and "VI" in labels
    # deterministic: family order, then sizes
    assert doms == enumerate_catalog(27)
    assert labels[0] == "I:1,1"
    # exceptional domains appear only when their dimension fits
    assert "V" not in [d.label for d in enumerate_catalog(15)]
    assert "VI" not in [d.label for d in enumerate_catalog(26)]
    assert [d.label for d in enumerate_catalog(1)] == ["I:1,1", "II:1", "III:2"]


def test_enumerate_catalog_small_caps():
    assert [d.label for d in enumerate_catalog(3)] == [
        "I:1,1",
        "I:1,2",
        "I:1,3",
        "II:1",
        "II:2",
        "III:2",
        "III:3",
        "IV:3",
    ]
    with pytest.raises(ValueError):
        enumerate_catalog(0)


def test_enumerate_catalog_dim_cap_limit():
    assert len(enumerate_catalog(1000)) == 4638
    with pytest.raises(ValueError, match="dim_cap=1001 needs"):
        enumerate_catalog(1001)


def test_domain_is_hashable_and_frozen():
    dom = make_domain("IV", (4,))
    assert isinstance(dom, CartanDomain)
    assert {dom: 1}[make_domain("IV", (4,))] == 1
    with pytest.raises(AttributeError):
        dom.r = 5
