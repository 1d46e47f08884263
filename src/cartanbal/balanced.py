"""Balancedness verdicts for Cartan and Cartan-Hartogs metrics.

Cartan case: beta*g_B is balanced iff beta > (gamma-1)/gamma, a strict
threshold (the boundary value is rejected).

Hartogs case: alpha*g(mu) over base Omega is balanced iff the squared norms
of the fiber-degree monomial blocks are independent of the degree m.  Two
necessary conditions come first (convergence of the fiber and base
integrals):

    alpha > dim + 1        and        alpha * mu > gamma - 1.

When they hold, the norm of the degree-(m) block is, up to m-independent
constants,

    I(m) ~ rising(alpha, m)/m! * m! * prod_{i=0..m} 1/(alpha-dim-1+i)
           * M(mu(alpha+m) - gamma),

with M the exact moment ratio of the base: the fiber integral is a Beta
integral telescoped exactly, and the base integral reduces to the moment of
N at exponent mu(alpha+m) - gamma.  The consecutive ratio

    R(m) = I(m+1)/I(m)
         = (alpha+m)/(alpha-dim+m) * M(mu(alpha+m)+mu-gamma)/M(mu(alpha+m)-gamma)

telescopes into R(m) = final_quantity(m+1)/final_quantity(m), with the
level quantity final_quantity(m) (numerator prod_{i=1..dim}(alpha+m-i),
denominator prod_c (mu(alpha+m) - gamma + c) over the dim poles c of M).  A
rational function whose unit step ratio is constant is itself constant, so
balancedness is exactly the constancy of final_quantity in m.
hartogs_balanced decides it on that one factored rational, reads an
m-dependence witness off its values, and asserts the verdict against the
closed-form characterization (balanced iff the base is a ball, mu = 1 and
alpha > dim+1), raising InternalConsistencyError on any disagreement.
norm_chain_ratio builds R(m) from the moment ratio, as the first-principles
route the tests compare against; no verdict calls it.

Note on degrees: numerator and denominator of final_quantity both have
degree dim for every catalog entry, so a degree comparison alone carries no
information; the constancy test compares full root multisets instead.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction

from .catalog import CartanDomain, enumerate_catalog
from .errors import (
    InternalConsistencyError,
    NonpositiveParameterError,
    PoleError,
    PreconditionError,
    _check_size,
    _Checked,
)
from .exactnum import FactoredRational
from .moments import _block_roots, moment_converges, moment_ratio
from .wallach import corollary_witness, hartogs_projectively_induced

__all__ = [
    "HartogsSpec",
    "BalancedVerdict",
    "REASON_OK",
    "REASON_ALPHA",
    "REASON_ALPHA_MU",
    "REASON_M_DEPENDENCE",
    "cartan_balanced",
    "hartogs_necessary",
    "final_quantity",
    "norm_chain_ratio",
    "hartogs_balanced",
    "ScanRow",
    "balanced_scan",
    "CorollaryRow",
    "CorollaryReport",
    "corollary_scan",
]

REASON_OK = "ok"
REASON_ALPHA = "alpha_not_above_d_plus_1"
REASON_ALPHA_MU = "alpha_mu_not_above_gamma_minus_1"
REASON_M_DEPENDENCE = "m_dependence"

# checked before any verdict: the default grids take about 1.4 s at cap 80 and
# 2.2 s at cap 100 (2-core VM, Python 3.11)
_MAX_SCAN_DIM_CAP = 100
# rows of one balanced_scan or corollary_scan, also checked before any verdict:
# admits the extended default scan grid at cap 100 (8,504 rows) and the default
# corollary grid at the catalog's cap 1,000 (11,908 rows)
_MAX_SCAN_ROWS = 12_000


class HartogsSpec(_Checked, namedtuple("HartogsSpec", "base mu alpha")):
    """Hartogs domain over a Cartan base with fiber exponent mu, weight alpha (Fractions > 0)."""

    __slots__ = ()

    def __new__(cls, base: CartanDomain, mu, alpha):
        mu, alpha = Fraction(mu), Fraction(alpha)
        if mu <= 0:
            raise NonpositiveParameterError(f"mu must be positive, got {mu}")
        if alpha <= 0:
            raise NonpositiveParameterError(f"alpha must be positive, got {alpha}")
        return super().__new__(cls, base, mu, alpha)

    @property
    def label(self) -> str:
        return f"{self.base.label} mu={self.mu} alpha={self.alpha}"


class BalancedVerdict(_Checked, namedtuple("BalancedVerdict",
                                           "balanced reason witness_m value_at_0 value_at_witness",
                                           defaults=(None, None, None))):
    """One Hartogs verdict; its fields are the balanced-hartogs CLI payload.

    ratio_constant (the constancy of the level quantity, equivalently of the
    norm-chain ratio) is read off the reason: True for ok, False for
    m_dependence, None when a necessary inequality fails and the ratio is
    undefined.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.witness_m is not None) != (self.reason == REASON_M_DEPENDENCE):
            raise ValueError("witness fields present iff reason is m_dependence")
        return self

    @property
    def ratio_constant(self) -> bool | None:
        return {REASON_OK: True, REASON_M_DEPENDENCE: False}.get(self.reason)


def cartan_balanced(dom: CartanDomain, beta) -> bool:
    """beta*g_B balanced iff beta > (gamma-1)/gamma (boundary rejected).

    Cross-asserted: balanced iff N^(beta*gamma - gamma) is integrable.
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise NonpositiveParameterError(f"beta must be positive, got {beta}")
    balanced = beta > Fraction(dom.gamma - 1, dom.gamma)
    if balanced != moment_converges(dom, beta * dom.gamma - dom.gamma):
        raise InternalConsistencyError(f"balancedness routes disagree for {dom.label} at beta={beta}")
    return balanced


def hartogs_necessary(spec: HartogsSpec) -> tuple[bool, bool]:
    """(alpha > dim+1, alpha*mu > gamma-1), both required for balancedness."""
    return (
        spec.alpha > spec.base.dim + 1,
        moment_converges(spec.base, spec.mu * spec.alpha - spec.base.gamma),
    )


def final_quantity(spec: HartogsSpec) -> FactoredRational:
    """The level quantity in the fiber degree m whose constancy is balancedness.

    numerator   prod_{i=1..dim} (alpha + m - i)
    denominator prod_c (mu(alpha+m) - gamma + c), over the dim poles c of the
                base moment ratio M

    Both products have dim factors.  No convergence precondition: this is a
    formal rational function.
    """
    dom = spec.base
    shift = spec.mu * spec.alpha - dom.gamma
    numer = [(1, spec.alpha - i) for i in range(1, dom.dim + 1)]
    denom = [(spec.mu, shift + c) for c in _block_roots(dom)]
    return FactoredRational(1, numer, denom, var="m")


def norm_chain_ratio(spec: HartogsSpec) -> FactoredRational:
    """Consecutive-degree squared-norm ratio R(m) = I(m+1)/I(m), exact.

    Built from first principles: the fiber Beta integral contributes
    (alpha+m)/(alpha-dim-1+m+1) and the base contributes the moment ratio
    evaluated at s = mu(alpha+m) - gamma versus s = mu(alpha+m+1) - gamma.
    Requires both convergence inequalities; under them every denominator
    factor is positive at integer m >= 0, so no pole can occur there.
    """
    dom = spec.base
    need_alpha, need_mix = hartogs_necessary(spec)
    if not need_alpha:
        raise PreconditionError(
            f"requires alpha > dim+1 = {dom.dim + 1}, got alpha = {spec.alpha}"
        )
    if not need_mix:
        raise PreconditionError(
            f"requires alpha*mu > gamma-1 = {dom.gamma - 1}, got "
            f"alpha*mu = {spec.alpha * spec.mu}"
        )
    ratio = moment_ratio(dom).as_rational
    # moment factors at s = mu*m + (mu*alpha + k*mu - gamma), k = 0 and 1
    at_m = ratio.compose_affine(spec.mu, spec.mu * spec.alpha - dom.gamma, var="m")
    at_m1 = ratio.compose_affine(
        spec.mu, spec.mu * (spec.alpha + 1) - dom.gamma, var="m"
    )
    fiber = FactoredRational(
        1,
        [(Fraction(1), spec.alpha)],
        [(Fraction(1), spec.alpha - dom.dim)],
        var="m",
    )
    return fiber * (at_m1 / at_m)


def _closed_form_balanced(spec: HartogsSpec) -> bool:
    """Independent route: balanced iff ball base, mu = 1, alpha > dim+1."""
    return spec.base.is_ball and spec.mu == 1 and spec.alpha > spec.base.dim + 1


def hartogs_balanced(spec: HartogsSpec) -> BalancedVerdict:
    """Balancedness verdict from the level quantity, cross-asserted.

    Route (1): the necessary inequalities, then the exact constancy of
    final_quantity in m.  A non-constant level quantity has numerator and
    denominator degree dim, so it cannot take its m=0 value at all of
    m = 1..dim+1; the smallest m where it moves is the witness.  Denominator
    factors are positive at integer m >= 0 under the inequalities, so no
    pole can occur there (asserted defensively).  Route (2): the closed-form
    rule.  Disagreement raises InternalConsistencyError (it must never fire).
    """
    need_alpha, need_mix = hartogs_necessary(spec)
    if not need_alpha:
        verdict = BalancedVerdict(False, REASON_ALPHA)
    elif not need_mix:
        verdict = BalancedVerdict(False, REASON_ALPHA_MU)
    elif (quantity := final_quantity(spec)).is_constant()[0]:
        verdict = BalancedVerdict(True, REASON_OK)
    else:
        try:
            value_0 = quantity.eval_at(0)
            for m in range(1, spec.base.dim + 2):
                value_m = quantity.eval_at(m)
                if value_m != value_0:
                    verdict = BalancedVerdict(False, REASON_M_DEPENDENCE, m, value_0, value_m)
                    break
            else:
                raise InternalConsistencyError(
                    f"level quantity non-constant but no witness found for {spec.label}"
                )
        except PoleError as exc:  # pragma: no cover - guarded by preconditions
            raise InternalConsistencyError(
                f"unexpected pole while searching m-dependence witness for "
                f"{spec.label}: {exc}"
            ) from exc
    expected = _closed_form_balanced(spec)
    if verdict.balanced != expected:
        raise InternalConsistencyError(
            f"balancedness routes disagree for {spec.label}: "
            f"level-quantity route says {verdict.balanced}, closed form says {expected}"
        )
    return verdict


# ---------------------------------------------------------------------------
# scans


class ScanRow(namedtuple("ScanRow", "domain mu alpha balanced reason witness_m closed_form"
                         " necessary_ok ratio_constant")):
    """One balanced_scan verdict; ratio_constant is None when the ratio is not defined."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The fields in order, JSON-ready: the domain as its label, mu and alpha as "p/q"."""
        return {**self._asdict(), "domain": self.domain.label, "mu": str(self.mu),
                "alpha": str(self.alpha)}


def default_scan_mus(dom: CartanDomain) -> list[Fraction]:
    mus = [
        Fraction(1, 2),
        Fraction(4, 5),
        Fraction(1),
        Fraction(3, 2),
        Fraction(2),
        Fraction(dom.gamma, dom.dim + 1),
    ]
    return sorted(set(mus))


def default_scan_alphas(dom: CartanDomain, extended: bool = False) -> list[Fraction]:
    alphas = [
        dom.dim + Fraction(3, 2),
        Fraction(dom.dim + 2),
        Fraction(2 * dom.dim + 3),
    ]
    if extended:
        alphas.append(dom.dim + Fraction(17, 8))
    return sorted(set(alphas))


def balanced_scan(
    dim_cap: int,
    mus=None,
    alphas=None,
    extended_alphas: bool = False,
) -> list[ScanRow]:
    """Exhaustive verdicts over the catalog; every row is cross-asserted.

    mus/alphas may be explicit lists of rationals; by default they follow the
    per-domain sample grids (mu includes gamma/(dim+1), alpha scales with the
    dimension).  The sort order of the result is (domain label, mu, alpha).
    A dim_cap over 100 or a grid over 12,000 rows raises ValueError before
    any verdict.
    """
    dim_cap = operator.index(dim_cap)
    _check_size("dim_cap", dim_cap, dim_cap, "scanned dimensions", _MAX_SCAN_DIM_CAP)
    mus = None if mus is None else [Fraction(m) for m in mus]
    alphas = None if alphas is None else [Fraction(al) for al in alphas]
    grids = [
        (dom,
         default_scan_mus(dom) if mus is None else mus,
         default_scan_alphas(dom, extended=extended_alphas) if alphas is None else alphas)
        for dom in enumerate_catalog(dim_cap)
    ]
    sizes = "x".join("default" if grid is None else str(len(grid)) for grid in (mus, alphas))
    count = sum(len(dom_mus) * len(dom_alphas) for _, dom_mus, dom_alphas in grids)
    _check_size("len(mus) x len(alphas)", sizes, count, "scan rows", _MAX_SCAN_ROWS)
    rows = []
    for dom, dom_mus, dom_alphas in grids:
        for mu in dom_mus:
            for alpha in dom_alphas:
                spec = HartogsSpec(dom, mu, alpha)
                verdict = hartogs_balanced(spec)
                rows.append(
                    ScanRow(
                        dom,
                        mu,
                        alpha,
                        verdict.balanced,
                        verdict.reason,
                        verdict.witness_m,
                        verdict.balanced,  # hartogs_balanced asserted the closed form equals it
                        verdict.ratio_constant is not None,
                        verdict.ratio_constant,
                    )
                )
    rows.sort(key=lambda row: (row.domain.label, row.mu, row.alpha))
    return rows


class CorollaryRow(namedtuple("CorollaryRow", "domain excluded mu0 alpha projectively_induced"
                              " balanced error", defaults=(False, None, None, None, None, None))):
    """One corollary_scan row; error is always None (failures raise), kept for the JSON schema."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        if self.excluded:
            return True
        return bool(self.projectively_induced) and not self.balanced

    def as_dict(self) -> dict:
        return {
            "domain": self.domain.label,
            "excluded": self.excluded,
            "mu0": None if self.mu0 is None else str(self.mu0),
            "alpha": None if self.alpha is None else str(self.alpha),
            "projectively_induced": self.projectively_induced,
            "balanced": self.balanced,
            "ok": self.ok,
            "error": self.error,
        }


class CorollaryReport(namedtuple("CorollaryReport", "dim_cap rows", defaults=((),))):
    """The corollary_scan rows (a tuple of CorollaryRow) for one dim_cap."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def corollary_scan(dim_cap: int, alphas=None) -> CorollaryReport:
    """Canonical-weight scan: projectively induced yet never balanced.

    For every non-ball catalog entry of dimension <= dim_cap, take the
    canonical fiber weight mu0 = gamma/(dim+1) and sample alpha at
    alpha_min + {0, 1, 10} (or an explicit alpha list).  Every row must come
    out projectively induced and not balanced.  Balls are reported as
    excluded rows.  Failures raise (a nonpositive alpha is refused before any
    row, even when every row is a ball), so every row's error is None.  A
    request over 12,000 rows raises ValueError before any verdict.
    """
    dim_cap = operator.index(dim_cap)
    if dim_cap < 2:
        raise PreconditionError(f"corollary scan needs dim_cap >= 2, got {dim_cap}")
    if alphas is not None:
        alphas = [Fraction(a) for a in alphas]
        for alpha in alphas:
            if alpha <= 0:
                raise NonpositiveParameterError(f"alpha must be positive, got {alpha}")
    domains = enumerate_catalog(dim_cap)
    balls = sum(dom.is_ball for dom in domains)
    per_domain = 3 if alphas is None else len(alphas)  # default: alpha_min + {0, 1, 10}
    count = balls + (len(domains) - balls) * per_domain
    _check_size("len(alphas)", per_domain, count, "corollary rows", _MAX_SCAN_ROWS)
    rows = []
    for dom in domains:
        if dom.is_ball:
            rows.append(CorollaryRow(dom, excluded=True))
            continue
        mu0, alpha_min = corollary_witness(dom)
        dom_alphas = alphas if alphas is not None else [alpha_min, alpha_min + 1, alpha_min + 10]
        for alpha in dom_alphas:
            spec = HartogsSpec(dom, mu0, alpha)
            rows.append(
                CorollaryRow(
                    dom,
                    mu0=mu0,
                    alpha=alpha,
                    projectively_induced=hartogs_projectively_induced(spec),
                    balanced=hartogs_balanced(spec).balanced,
                )
            )
    return CorollaryReport(dim_cap, tuple(rows))
