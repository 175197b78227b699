"""Least-squares estimation with sector fixed effects absorbed.

The dependent variable is regressed on three columns, PRE x NEWS,
POST x NEWS, and the market control, after every variable has had its
sector-group mean subtracted (within transformation). Group demeaning is
numerically equivalent to including one dummy per sector; the equivalence is
exercised against a brute-force dummy-variable solver in the test suite. The
demeaned system is solved by QR decomposition; the raw normal-equation route
exists only as a test oracle.

Degrees of freedom are n_obs - n_sectors - 3. Sectors with a single
observation are absorbed exactly (their demeaned row is zero) and still count
in the correction. Standard errors are homoskedastic by default, with an
opt-in HC1 heteroskedasticity-robust covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import stdtr

from .csvio import write_rows
from .errors import (
    CollinearError,
    DegenerateVarianceError,
    EmptyPanelError,
    InsufficientDataError,
)
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


@dataclass(frozen=True)
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
    EmptyPanelError on an empty panel. Singleton sectors come out as all-zero
    rows; they are absorbed and counted in the dof correction by ``fit``.
    """
    if len(panel) == 0:
        raise EmptyPanelError("cannot transform an empty panel")
    # per pair and period: y, pre_news, post_news, market_x
    stacked = np.zeros((len(panel.news_value), 2, 4))
    stacked[:, :, 0] = panel.y
    stacked[:, 0, 1] = panel.news_value
    stacked[:, 1, 2] = panel.news_value
    stacked[:, :, 3] = panel.market_x
    stacked = stacked.reshape(-1, 4)
    labels, codes = np.unique(panel.sector, return_inverse=True)
    codes = np.repeat(codes, 2)
    n_groups = len(labels)
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    # bincount adds each group's rows one at a time in row order
    sums = np.column_stack(
        [np.bincount(codes, weights=stacked[:, j], minlength=n_groups) for j in range(4)]
    )
    means = sums / counts[:, None]
    demeaned = stacked - means[codes]
    return WithinDesign(
        y=demeaned[:, 0],
        X=demeaned[:, 1:],
        sector_labels=[str(s) for s in labels],
    )


def _diff_fields(beta: np.ndarray, cov: np.ndarray, dof: int) -> tuple[float, float, float, float]:
    """(diff, diff_se, diff_t, diff_p) of the net-disclosure test beta_post - beta_pre.

    diff_se comes from var_pre + var_post - 2 cov_prepost; the p value is the
    two-sided t tail with ``dof`` degrees of freedom.
    """
    diff = float(beta[1] - beta[0])
    var_diff = float(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1])
    if var_diff < 0.0:
        if var_diff < -1e-12:
            raise DegenerateVarianceError(f"negative difference variance {var_diff:.3e}")
        var_diff = 0.0
    diff_se = var_diff**0.5
    if diff_se == 0.0:
        if diff != 0.0:
            raise DegenerateVarianceError("zero variance with nonzero difference")
        return 0.0, 0.0, 0.0, 1.0
    diff_t = diff / diff_se
    # scipy.stats.t.sf(x, dof) is stdtr(dof, -x); importing scipy.stats for it
    # would take longer than importing the rest of the package
    diff_p = float(2.0 * stdtr(dof, -abs(diff_t)))
    return diff, diff_se, diff_t, diff_p


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
        raise InsufficientDataError(
            f"{n} observations cannot support {n_sectors} absorbed sectors and 3 slopes"
        )

    X, y = design.X, design.y
    if not np.any(y):
        # a flat response is fit exactly by the zero solution even when the
        # design is degenerate (constant series yield both at once)
        beta, cov = np.zeros(3), np.zeros((3, 3))
    else:
        col_norms = np.linalg.norm(X, axis=0)
        Q, R = np.linalg.qr(X)
        diag = np.abs(np.diag(R))
        for j in range(3):
            if diag[j] <= _RANK_RTOL * max(col_norms[j], 1e-300):
                raise CollinearError(REGRESSOR_NAMES[j])

        beta = solve_triangular(R, Q.T @ y)
        resid = y - X @ beta
        r_inv = solve_triangular(R, np.eye(3))
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
    write_rows(path, FIT_HEADER, (
        (r.mode, r.polarity, r.w, r.beta_pre, r.se_pre, r.beta_post, r.se_post, r.beta_x,
         r.se_x, r.diff, r.diff_se, r.diff_t, r.diff_p, r.n_obs)
        for r in results
    ))
