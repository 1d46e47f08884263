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

is a rational function of m in factored form, and balancedness is exactly
R identically 1.  The displayed level quantity final_quantity(m) (numerator
prod_{i=1..dim}(alpha+m-i), denominator with one linear factor per dimension)
satisfies R(m) = final_quantity(m+1)/final_quantity(m) identically, so the
two constancy tests must agree; hartogs_balanced asserts this against the
closed-form characterization (balanced iff the base is a ball, mu = 1 and
alpha > dim+1) and raises InternalConsistencyError on any disagreement.

Note on degrees: numerator and denominator of final_quantity both have
degree dim for every catalog entry, so a degree comparison alone carries no
information; the constancy test compares full root multisets instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .catalog import CartanDomain, enumerate_catalog
from .errors import (
    InternalConsistencyError,
    NonpositiveParameterError,
    PoleError,
    PreconditionError,
)
from .exactnum import FactoredRational
from .moments import moment_ratio
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


@dataclass(frozen=True)
class HartogsSpec:
    """Hartogs domain over a Cartan base with fiber exponent mu, weight alpha."""

    base: CartanDomain
    mu: Fraction
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.mu <= 0:
            raise NonpositiveParameterError(f"mu must be positive, got {self.mu}")
        if self.alpha <= 0:
            raise NonpositiveParameterError(f"alpha must be positive, got {self.alpha}")

    @property
    def label(self) -> str:
        return f"{self.base.label} mu={self.mu} alpha={self.alpha}"


@dataclass(frozen=True)
class BalancedVerdict:
    balanced: bool
    reason: str
    witness_m: int | None = None
    value_at_0: Fraction | None = None
    value_at_witness: Fraction | None = None
    # constancy of the norm-chain ratio; None when a precondition fails
    ratio_constant: bool | None = None

    def __post_init__(self):
        has_witness = self.witness_m is not None
        if has_witness != (self.reason == REASON_M_DEPENDENCE):
            raise ValueError("witness fields present iff reason is m_dependence")
        has_ratio = self.ratio_constant is not None
        if has_ratio != (self.reason in (REASON_OK, REASON_M_DEPENDENCE)):
            raise ValueError("ratio_constant present iff the preconditions hold")


def cartan_balanced(dom: CartanDomain, beta) -> bool:
    """beta*g_B balanced iff beta > (gamma-1)/gamma (boundary rejected)."""
    beta = Fraction(beta)
    if beta <= 0:
        raise NonpositiveParameterError(f"beta must be positive, got {beta}")
    return beta > Fraction(dom.gamma - 1, dom.gamma)


def hartogs_necessary(spec: HartogsSpec) -> tuple[bool, bool]:
    """(alpha > dim+1, alpha*mu > gamma-1), both required for balancedness."""
    return (
        spec.alpha > spec.base.dim + 1,
        spec.alpha * spec.mu > spec.base.gamma - 1,
    )


def final_quantity(spec: HartogsSpec) -> FactoredRational:
    """The level quantity in the fiber degree m whose constancy is balancedness.

    numerator   prod_{i=1..dim} (alpha + m - i)
    denominator prod_{j=1..r} prod_{t=0..b+a(r-j)}
                (mu(alpha+m) - gamma + 1 - a/2 + j a/2 + t)

    Both products have dim factors.  No convergence precondition: this is a
    formal rational function.
    """
    dom = spec.base
    numer = [(Fraction(1), spec.alpha - i) for i in range(1, dom.dim + 1)]
    denom = []
    for j in range(1, dom.r + 1):
        base = (
            spec.mu * spec.alpha
            - dom.gamma
            + 1
            + Fraction((j - 1) * dom.a, 2)
        )
        for t in range(dom.b + dom.a * (dom.r - j) + 1):
            denom.append((spec.mu, base + t))
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
    """Balancedness verdict, computed two ways and cross-asserted.

    Route (1): necessary inequalities, then exact constancy of the
    norm-chain ratio, with an m-dependence witness extracted from the level
    quantity.  Route (2): the closed-form rule.  Disagreement raises
    InternalConsistencyError (it must never fire).
    """
    need_alpha, need_mix = hartogs_necessary(spec)
    if not need_alpha:
        verdict = BalancedVerdict(False, REASON_ALPHA)
    elif not need_mix:
        verdict = BalancedVerdict(False, REASON_ALPHA_MU)
    else:
        ratio = norm_chain_ratio(spec)
        constant, value = ratio.is_constant()
        if constant:
            if value != 1:
                raise InternalConsistencyError(
                    f"constant norm-chain ratio with value {value} != 1 for "
                    f"{spec.label}"
                )
            verdict = BalancedVerdict(True, REASON_OK, ratio_constant=True)
        else:
            verdict = _m_dependence_verdict(spec)
    expected = _closed_form_balanced(spec)
    if verdict.balanced != expected:
        raise InternalConsistencyError(
            f"balancedness routes disagree for {spec.label}: "
            f"chain-ratio route says {verdict.balanced}, closed form says {expected}"
        )
    return verdict


def _m_dependence_verdict(spec: HartogsSpec) -> BalancedVerdict:
    """Locate the smallest m >= 1 where the level quantity moves.

    The level quantity has numerator and denominator degree dim, so if it is
    non-constant it cannot take its m=0 value at all of m = 1..dim+1.
    Denominator factors are positive at integer m >= 0 under the convergence
    inequalities, so evaluation cannot hit a pole; asserted defensively.
    """
    quantity = final_quantity(spec)
    try:
        value_0 = quantity.eval_at(0)
        for m in range(1, spec.base.dim + 2):
            value_m = quantity.eval_at(m)
            if value_m != value_0:
                return BalancedVerdict(
                    False, REASON_M_DEPENDENCE, m, value_0, value_m, ratio_constant=False
                )
    except PoleError as exc:  # pragma: no cover - guarded by preconditions
        raise InternalConsistencyError(
            f"unexpected pole while searching m-dependence witness for "
            f"{spec.label}: {exc}"
        ) from exc
    raise InternalConsistencyError(
        f"norm-chain ratio non-constant but no witness found for {spec.label}"
    )


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True)
class ScanRow:
    domain: CartanDomain
    mu: Fraction
    alpha: Fraction
    balanced: bool
    reason: str
    witness_m: int | None
    closed_form: bool
    necessary_ok: bool
    ratio_constant: bool | None  # None when the ratio is not defined

    def as_dict(self) -> dict:
        return {
            "domain": self.domain.label,
            "mu": str(self.mu),
            "alpha": str(self.alpha),
            "balanced": self.balanced,
            "reason": self.reason,
            "witness_m": self.witness_m,
            "closed_form": self.closed_form,
            "necessary_ok": self.necessary_ok,
            "ratio_constant": self.ratio_constant,
        }


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
    """
    rows = []
    for dom in enumerate_catalog(dim_cap):
        dom_mus = [Fraction(m) for m in mus] if mus is not None else default_scan_mus(dom)
        dom_alphas = (
            [Fraction(al) for al in alphas]
            if alphas is not None
            else default_scan_alphas(dom, extended=extended_alphas)
        )
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
                        _closed_form_balanced(spec),
                        verdict.ratio_constant is not None,
                        verdict.ratio_constant,
                    )
                )
    rows.sort(key=lambda row: (row.domain.label, row.mu, row.alpha))
    return rows


@dataclass(frozen=True)
class CorollaryRow:
    domain: CartanDomain
    excluded: bool = False
    mu0: Fraction | None = None
    alpha: Fraction | None = None
    projectively_induced: bool | None = None
    balanced: bool | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        if self.excluded:
            return True
        if self.error is not None:
            return False
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


@dataclass(frozen=True)
class CorollaryReport:
    dim_cap: int
    rows: tuple[CorollaryRow, ...] = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def corollary_scan(dim_cap: int, alphas=None) -> CorollaryReport:
    """Canonical-weight scan: projectively induced yet never balanced.

    For every non-ball catalog entry of dimension <= dim_cap, take the
    canonical fiber weight mu0 = gamma/(dim+1) and sample alpha at
    alpha_min + {0, 1, 10} (or an explicit alpha list).  Every row must come
    out projectively induced and not balanced.  Balls are reported as
    excluded rows.  Per-row failures are recorded, never raised.
    """
    if dim_cap < 2:
        raise PreconditionError(f"corollary scan needs dim_cap >= 2, got {dim_cap}")
    rows = []
    for dom in enumerate_catalog(dim_cap):
        if dom.is_ball:
            rows.append(CorollaryRow(dom, excluded=True))
            continue
        mu0, alpha_min = corollary_witness(dom)
        dom_alphas = (
            [Fraction(a) for a in alphas]
            if alphas is not None
            else [alpha_min, alpha_min + 1, alpha_min + 10]
        )
        for alpha in dom_alphas:
            try:
                spec = HartogsSpec(dom, mu0, alpha)
                projective = hartogs_projectively_induced(spec)
                verdict = hartogs_balanced(spec)
                rows.append(
                    CorollaryRow(
                        dom,
                        mu0=mu0,
                        alpha=alpha,
                        projectively_induced=projective,
                        balanced=verdict.balanced,
                    )
                )
            except Exception as exc:  # keep scanning, report the failure
                rows.append(
                    CorollaryRow(
                        dom, mu0=mu0, alpha=alpha, error=f"{type(exc).__name__}: {exc}"
                    )
                )
    return CorollaryReport(dim_cap, tuple(rows))
