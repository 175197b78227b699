"""Least-squares estimation with sector fixed effects absorbed.

The dependent variable is regressed on three columns, PRE x NEWS,
POST x NEWS, and the market control, after every variable has had its
sector-group mean subtracted (within transformation). Group demeaning is
numerically equivalent to including one dummy per sector; the equivalence is
exercised against a brute-force dummy-variable solver in the test suite. Group
sums are ``np.bincount`` over the panel's int sector codes. The demeaned system
is solved by QR decomposition, whose R gives the column norms of the
collinearity test; the normal-equation route exists only as a test oracle.

Degrees of freedom are n_obs - n_sectors - 3, counting the sectors of kept
pairs. Sectors with a single observation are absorbed exactly (their demeaned
row is zero) and still count in the correction. Standard errors are
homoskedastic by default, with an opt-in HC1 heteroskedasticity-robust covariance.

The difference test's p value is the two-sided t tail I_x(dof/2, 1/2),
x = dof / (dof + t^2), from the standard library alone (``two_sided_p``): the
BGRAT expansion of DiDonato & Morris (1992, ACM TOMS 708) with b = 1/2, where
Q(1/2, u) = erfc(sqrt(u)), for dof/2 >= 15 and t^2 <= 3 dof / 7; elsewhere
(small dof, far tail) the incomplete beta continued fraction by modified
Lentz. Gamma(a + 1/2) / Gamma(a) comes from ``math.gamma`` below a = 15 and
from its asymptotic series above, never from an ``lgamma`` difference. The
relative error against ``scipy.special.stdtr`` is within 2e-14 * max(1, t^2)
on the grid in the tests (dof 1 to 1e6, |t| 1e-3 to 40), t^2 being the
conditioning of a tail whose log is about -t^2 / 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import write_rows
from .panel import Panel

REGRESSOR_NAMES = ("pre_news", "post_news", "market_x")

FIT_HEADER = (
    "mode",
    "polarity",
    "w",
    "beta_pre",
    "se_pre",
    "beta_post",
    "se_post",
    "beta_x",
    "se_x",
    "diff",
    "diff_se",
    "diff_t",
    "diff_p",
    "n_obs",
)

# relative threshold on QR diagonals for declaring a column dependent
_RANK_RTOL = 1e-8

# t tail: relative stopping tolerance, and the a = dof/2 from which BGRAT and
# the Gamma ratio's series apply (its first omitted term is then < 1e-16)
_TAIL_EPS = 2.0**-52
_LARGE_A = 15.0
# Gamma(a + 1/2) / (Gamma(a) sqrt(nu)) = 1 + sum_k c_k nu^(-2k), nu = a - 1/4;
# c_5 down to c_1, for Horner's rule
_RATIO_SERIES = (20491783 / 2**33, -174317 / 2**27, 631 / 2**19, -19 / 2**13, 1 / 2**6)


def _bgrat_coefficients(n_terms: int = 30) -> tuple[float, ...]:
    """d_1 .. d_n of the BGRAT series (TOMS 708) at b = 1/2; c_n = 1 / (2n + 1)!."""
    c, d = [1.0], []
    for n in range(1, n_terms + 1):
        c.append(c[-1] / ((2 * n) * (2 * n + 1)))
        d.append(-0.5 * c[n] + sum((i / 2 - n) * c[i] * d[n - i - 1] for i in range(1, n)) / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients()


@dataclass(frozen=True, eq=False)
class WithinDesign:
    """Sector-demeaned response and regressors, plus the absorbed sectors."""

    y: np.ndarray  # (n,)
    X: np.ndarray  # (n, 3) columns pre_news, post_news, market_x
    sector_labels: list[str]


@dataclass(frozen=True)
class FitResult:
    mode: str
    polarity: str
    w: int
    beta_pre: float
    beta_post: float
    beta_x: float
    se_pre: float
    se_post: float
    se_x: float
    cov_prepost: float
    n_obs: int
    dof: int
    diff: float
    diff_se: float
    diff_t: float
    diff_p: float


def within_transform(panel: Panel) -> WithinDesign:
    """Subtract sector-group means from the response and every regressor.

    Rows are the panel's observations, pre then post per pair. Raises
    ValueError on an empty panel. Singleton sectors come out as all-zero
    rows; they are absorbed and counted in the dof correction by ``fit``.
    """
    if len(panel) == 0:
        raise ValueError("cannot transform an empty panel")
    codes = np.repeat(panel.sector, 2)
    counts = 2 * np.bincount(panel.sector, minlength=len(panel.sector_labels))
    present = counts > 0

    def means(column: np.ndarray, at: np.ndarray) -> np.ndarray:
        # bincount adds each group's rows one at a time in row order; a sector
        # without rows gets no mean
        sums = np.bincount(at, weights=column, minlength=len(counts))
        return np.divide(sums, counts, out=sums, where=present)[at]

    # rows pre then post per pair: y, pre_news, post_news, market_x. A zero news cell adds +0.0
    # to a sum, so both news columns share the pairs' sums; it demeans as 0.0 - mean, never -0.0
    news_mean = means(panel.news_value, panel.sector)
    out = np.empty((len(codes), 4))
    out[:, 0] = panel.y.ravel() - means(panel.y.ravel(), codes)
    out[0::2, 1] = out[1::2, 2] = panel.news_value - news_mean
    out[1::2, 1] = out[0::2, 2] = 0.0 - news_mean
    out[:, 3] = panel.market_x.ravel() - means(panel.market_x.ravel(), codes)
    return WithinDesign(y=out[:, 0], X=out[:, 1:], sector_labels=panel.sector_labels[present].tolist())


def _diff_fields(beta: np.ndarray, cov: np.ndarray, dof: int) -> tuple[float, float, float, float]:
    """(diff, diff_se, diff_t, diff_p) of the net-disclosure test beta_post - beta_pre.

    diff_se comes from var_pre + var_post - 2 cov_prepost; the p value is the
    two-sided t tail with ``dof`` degrees of freedom.
    """
    diff = float(beta[1] - beta[0])
    var_diff = float(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1])
    if var_diff < 0.0:
        if var_diff < -1e-12:
            raise ValueError(f"negative difference variance {var_diff:.3e}")
        var_diff = 0.0
    diff_se = var_diff**0.5
    if diff_se == 0.0:
        if diff != 0.0:
            raise ValueError("zero variance with nonzero difference")
        return 0.0, 0.0, 0.0, 1.0
    diff_t = diff / diff_se
    return diff, diff_se, diff_t, two_sided_p(diff_t, dof)


def _gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a) for a > 0."""
    if a < _LARGE_A:
        return math.gamma(a + 0.5) / math.gamma(a)
    h2 = (a - 0.25) ** -2
    series = 0.0
    for coef in _RATIO_SERIES:
        series = (series + coef) * h2
    return math.sqrt(a - 0.25) * (1.0 + series)


def _beta_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) / (x^a (1 - x)^b / (a B(a, b))), a continued fraction (modified Lentz).

    Converges fast for x < (a + 1) / (a + b + 2).
    """
    f, c, d = 1.0, 1.0, 0.0
    for m in range(1, 1000):
        k = m // 2
        if m % 2:
            num = -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1))
        else:
            num = k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-300 else 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= _TAIL_EPS:
            break
    return 1.0 / f


def two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom: I_x(dof/2, 1/2)."""
    r = t * t / dof  # (1 - x) / x
    if r == 0.0:
        return 1.0
    a = 0.5 * dof
    lnx = -math.log1p(r)
    if a >= _LARGE_A and r <= 3.0 / 7.0:
        # BGRAT: Gamma ratio / sqrt(nu) * (Q(1/2, z) + sum_n d_n R J_n) with
        # R = sqrt(z / pi) e^-z; carrying R J_n, not J_n, lets both underflow together
        nu = a - 0.25
        z = -nu * lnx
        q = math.erfc(math.sqrt(z))
        v, t2 = 0.25 / (nu * nu), 0.25 * lnx * lnx
        rj, rt, total = q, math.sqrt(z / math.pi) * math.exp(-z), q
        for n, dn in enumerate(_BGRAT_D):
            b2n = 0.5 + 2 * n
            rj = (b2n * (b2n + 1.0) * rj + (z + b2n + 1.0) * rt) * v
            rt *= t2
            total += dn * rj
            if abs(dn * rj) <= _TAIL_EPS * total:
                break
        return _gamma_ratio(a) / math.sqrt(nu) * total
    x = 1.0 / (1.0 + r)
    # x^a (1 - x)^(1/2) / B(a, 1/2), and B(a, 1/2) = sqrt(pi) / Gamma ratio
    front = math.exp(a * lnx - 0.5 * math.log1p(1.0 / r)) * _gamma_ratio(a) / math.sqrt(math.pi)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - front * _beta_cf(0.5, a, r * x) / 0.5


def fit(panel: Panel, robust: bool = False) -> FitResult:
    """Estimate the three-regressor model on the within-transformed panel.

    Parameters
    ----------
    panel : Panel
        Balanced pre/post observations carrying sector codes.
    robust : bool
        Use the HC1 heteroskedasticity-robust covariance instead of the
        homoskedastic sigma^2 (X'X)^-1 default.

    Returns
    -------
    FitResult
        Coefficients, standard errors, the pre/post coefficient covariance,
        and the difference test for beta_post - beta_pre.
    """
    design = within_transform(panel)
    n = len(design.y)
    n_sectors = len(design.sector_labels)
    dof = n - n_sectors - 3
    if dof <= 0:
        raise ValueError(
            f"{n} observations cannot support {n_sectors} absorbed sectors and 3 slopes"
        )

    X, y = design.X, design.y
    if not np.any(y):
        # a flat response is fit exactly by the zero solution even when the
        # design is degenerate (constant series yield both at once)
        beta, cov = np.zeros(3), np.zeros((3, 3))
    else:
        Q, R = np.linalg.qr(X)
        col_norms = np.sqrt(np.einsum("ij,ij->j", R, R))
        diag = np.abs(np.diag(R))
        for j in range(3):
            if diag[j] <= _RANK_RTOL * max(col_norms[j], 1e-300):
                raise ValueError(
                    f"collinear design: column '{REGRESSOR_NAMES[j]}' "
                    "carries no independent variation"
                )

        r_inv = np.linalg.inv(R)
        beta = r_inv @ (Q.T @ y)
        resid = y - X @ beta
        xtx_inv = r_inv @ r_inv.T
        if robust:
            meat = (X * resid[:, None] ** 2).T @ X
            cov = xtx_inv @ meat @ xtx_inv * (n / dof)
        else:
            cov = float(resid @ resid) / dof * xtx_inv

    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    diff, diff_se, diff_t, diff_p = _diff_fields(beta, cov, dof)
    return FitResult(
        mode=panel.mode,
        polarity=panel.polarity,
        w=panel.w,
        beta_pre=float(beta[0]),
        beta_post=float(beta[1]),
        beta_x=float(beta[2]),
        se_pre=float(se[0]),
        se_post=float(se[1]),
        se_x=float(se[2]),
        cov_prepost=float(cov[0, 1]),
        n_obs=n,
        dof=dof,
        diff=diff,
        diff_se=diff_se,
        diff_t=diff_t,
        diff_p=diff_p,
    )


def write_fits(results: Sequence[FitResult], path) -> None:
    """Export fit rows, one line per estimated cell."""
    write_rows(path, FIT_HEADER, map(operator.attrgetter(*FIT_HEADER), results))
