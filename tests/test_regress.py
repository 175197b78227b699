from __future__ import annotations

import dataclasses
import datetime as dt
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.special import stdtr

from conftest import (make_panel, make_series, make_stores, random_panel, simple_event, simple_firm,
                      weekday_dates)
from newsprop.panel import build_panel
from newsprop.regress import (
    FIT_HEADER,
    _diff_fields,
    _gamma_ratio,
    fit,
    two_sided_p,
    within_transform,
    write_fits,
)

# the p value's accuracy bound against scipy: relative, times max(1, t^2)
P_RTOL = 2e-14


def observation_rows(panel):
    """(sector, is_pre, news_value, market_x, y) per observation, pre then post per pair."""
    return [
        (panel.sector_labels[panel.sector[k]], j == 0, panel.news_value[k], panel.market_x[k, j], panel.y[k, j])
        for k in range(len(panel.news_id))
        for j in (0, 1)
    ]


def add_at_reference(panel):
    """The demeaned (2n, 4) design from the stacked observation rows by
    ``np.add.at`` group sums, and the sorted labels of the sectors present."""
    rows = observation_rows(panel)
    stacked = np.array([
        (y, news if is_pre else 0.0, 0.0 if is_pre else news, x)
        for _, is_pre, news, x, y in rows
    ])
    labels, codes = np.unique([row[0] for row in rows], return_inverse=True)
    sums = np.zeros((len(labels), 4))
    np.add.at(sums, codes, stacked)
    return stacked - (sums / np.bincount(codes)[:, None])[codes], labels.tolist()


def assert_design_bytes(panel):
    demeaned, labels = add_at_reference(panel)
    design = within_transform(panel)
    assert design.y.tobytes() == demeaned[:, 0].tobytes()
    assert design.X.tobytes() == np.ascontiguousarray(demeaned[:, 1:]).tobytes()
    assert design.sector_labels == labels


def dummy_ols(panel):
    """Brute-force oracle: full dummy-variable least squares.

    Design is [sector dummies | pre_news | post_news | market_x]; returns the
    slope coefficients, their standard errors, and the pre/post covariance,
    with dof = n - n_sectors - 3.
    """
    rows = observation_rows(panel)
    n = len(rows)
    sectors = sorted({row[0] for row in rows})
    s_index = {s: j for j, s in enumerate(sectors)}
    k = len(sectors)
    X = np.zeros((n, k + 3))
    y = np.empty(n)
    for i, (sector, pre, news_value, market_x, y_i) in enumerate(rows):
        X[i, s_index[sector]] = 1.0
        X[i, k] = news_value if pre else 0.0
        X[i, k + 1] = 0.0 if pre else news_value
        X[i, k + 2] = market_x
        y[i] = y_i
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    dof = n - k - 3
    sigma2 = resid @ resid / dof
    cov = sigma2 * np.linalg.pinv(X.T @ X)
    slope_cov = cov[k:, k:]
    return beta[k:], np.sqrt(np.diag(slope_cov)), slope_cov[0, 1], dof


def reparameterized_fit(panel):
    """Oracle for the difference test: regressors {NEWS, POST*NEWS, X}.

    The coefficient on POST*NEWS equals beta_post - beta_pre, and its
    standard error equals the difference's standard error.
    """
    rows = observation_rows(panel)
    n = len(rows)
    sectors = sorted({row[0] for row in rows})
    s_index = {s: j for j, s in enumerate(sectors)}
    k = len(sectors)
    X = np.zeros((n, k + 3))
    y = np.empty(n)
    for i, (sector, pre, news_value, market_x, y_i) in enumerate(rows):
        X[i, s_index[sector]] = 1.0
        X[i, k] = news_value
        X[i, k + 1] = 0.0 if pre else news_value
        X[i, k + 2] = market_x
        y[i] = y_i
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    dof = n - k - 3
    sigma2 = resid @ resid / dof
    cov = sigma2 * np.linalg.pinv(X.T @ X)
    return beta[k + 1], np.sqrt(cov[k + 1, k + 1])


class TestWithinTransform:
    def test_single_sector_subtracts_global_mean(self, rng):
        panel = random_panel(rng, n_pairs=10, n_sectors=1)
        design = within_transform(panel)
        y = np.array([row[4] for row in observation_rows(panel)])
        assert design.y == pytest.approx(y - y.mean(), abs=1e-12)
        assert len(design.sector_labels) == 1

    def test_equal_within_group_values_demean_to_zero(self):
        values = [[3.0, 3.0], [-2.0, -2.0]]  # sector S0, then S1; pre and post
        design = within_transform(make_panel(["S0", "S1"], [0.5, 0.5], values, values))
        assert np.allclose(design.y, 0.0)
        assert np.allclose(design.X[:, 2], 0.0)

    def test_empty_panel_raises(self):
        with pytest.raises(ValueError, match="cannot transform an empty panel"):
            within_transform(make_panel([], [], np.empty((0, 2)), np.empty((0, 2))))

    @pytest.mark.parametrize("sizes", [[1], [1, 1, 1], [1, 2, 40], [3, 1, 17, 1, 90, 5, 1, 2]])
    def test_group_sums_equal_add_at_reference(self, sizes, rng):
        # unbalanced sectors, singletons included, in shuffled row order, with
        # magnitudes spread wide enough that the order of additions shows
        sector = rng.permutation([f"S{g:02d}" for g, size in enumerate(sizes) for _ in range(size)])
        n = len(sector)
        scale = 10.0 ** rng.uniform(-8, 8, size=(n, 2))
        panel = make_panel(
            sector, rng.uniform(0.0, 1.0, n), rng.normal(size=(n, 2)) * scale,
            rng.normal(size=(n, 2)) * scale,
        )
        assert_design_bytes(panel)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(sizes=st.lists(st.integers(1, 30), min_size=2, max_size=8), seed=st.integers(0, 2**32 - 1))
    def test_all_zero_news_sector_equals_add_at_reference(self, sizes, seed):
        # the first sector's news is all 0.0, so its news means are 0.0 and each
        # of its news cells must come out +0.0, as 0.0 - 0.0 does
        rng = np.random.default_rng(seed)
        sector = np.array([f"S{g:02d}" for g, size in enumerate(sizes) for _ in range(size)])
        n = len(sector)
        order = rng.permutation(n)
        news = np.where(sector == "S00", 0.0, rng.uniform(0.0, 1.0, n))
        scale = 10.0 ** rng.uniform(-8, 8, size=(n, 2))
        panel = make_panel(sector[order], news[order], rng.normal(size=(n, 2)) * scale,
                           rng.normal(size=(n, 2)) * scale)
        assert_design_bytes(panel)

    def test_sectors_without_kept_pairs_are_not_absorbed(self, rng):
        # S2's one firm has no prices, so all its pairs drop; E's empty sector
        # drops its pairs too. Both labels stay on the panel, and neither may
        # count in the dof or get a mean (a 0/0 mean would warn, an error here)
        dates = weekday_dates(dt.date(2016, 1, 4), 60)
        sectors = {"A": "S0", "B": "S0", "C": "S1", "D": "S2", "E": ""}
        prices = {f: make_series(dates, 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 60))))
                  for f in sectors if f != "D"}
        index = make_series(dates, 1000.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 60))))
        events = [simple_event(f"N{f}{k}", dates[10 + 7 * k + i], {f}, p_pos=float(rng.uniform()))
                  for i, f in enumerate(sectors) for k in range(6)]
        stores = make_stores(firms=[simple_firm(f, sector=s) for f, s in sectors.items()],
                             prices=prices, indices={"M0": index}, events=events)
        panel = build_panel(stores, "own", "positive", 1)
        assert sorted({d.reason for d in panel.drops}) == ["missing-sector", "price-window"]
        assert panel.sector_labels.tolist() == ["", "S0", "S1", "S2"]
        kept = np.unique(panel.sector_labels[panel.sector]).tolist()
        assert kept == ["S0", "S1"]
        assert within_transform(panel).sector_labels == kept
        assert fit(panel).dof == len(panel) - len(kept) - 3

    def test_matches_dummy_solver(self, rng):
        panel = random_panel(rng, n_pairs=25, n_sectors=6)
        design = within_transform(panel)
        beta = np.linalg.lstsq(design.X, design.y, rcond=None)[0]
        expected, _, _, _ = dummy_ols(panel)
        assert beta == pytest.approx(expected, abs=1e-8)


class TestFit:
    def test_zero_response_gives_zero_betas(self, rng):
        panel = random_panel(rng, n_pairs=20, n_sectors=3)
        panel = dataclasses.replace(panel, y=np.zeros_like(panel.y))
        result = fit(panel)
        assert result.beta_pre == result.beta_post == result.beta_x == 0.0
        assert result.se_pre == result.se_post == result.se_x == 0.0
        # a flat response on a degenerate design (market_x all zero) skips the
        # collinearity check and still reports a zero difference test
        flat = fit(dataclasses.replace(panel, market_x=np.zeros_like(panel.market_x)))
        assert flat.beta_pre == flat.beta_post == flat.beta_x == flat.cov_prepost == 0.0
        assert (flat.diff, flat.diff_se, flat.diff_t, flat.diff_p) == (0.0, 0.0, 0.0, 1.0)

    def test_six_row_normal_equation_hand_solve(self, rng):
        panel = random_panel(rng, n_pairs=3, n_sectors=1)
        result = fit(panel)
        design = within_transform(panel)
        # explicit normal equations on the demeaned system
        xtx = design.X.T @ design.X
        beta = np.linalg.solve(xtx, design.X.T @ design.y)
        resid = design.y - design.X @ beta
        dof = 6 - 1 - 3
        cov = (resid @ resid / dof) * np.linalg.inv(xtx)
        assert result.beta_pre == pytest.approx(beta[0], abs=1e-10)
        assert result.beta_post == pytest.approx(beta[1], abs=1e-10)
        assert result.beta_x == pytest.approx(beta[2], abs=1e-10)
        assert result.se_pre == pytest.approx(cov[0, 0] ** 0.5, abs=1e-10)
        assert result.dof == dof

    def test_equivalence_with_dummy_ols(self, rng):
        for _ in range(20):
            n_pairs = int(rng.integers(10, 120))
            n_sectors = int(rng.integers(1, 12))
            panel = random_panel(rng, n_pairs=n_pairs, n_sectors=n_sectors)
            result = fit(panel)
            betas, ses, cov01, dof = dummy_ols(panel)
            assert result.beta_pre == pytest.approx(betas[0], abs=1e-8)
            assert result.beta_post == pytest.approx(betas[1], abs=1e-8)
            assert result.beta_x == pytest.approx(betas[2], abs=1e-8)
            assert result.se_pre == pytest.approx(ses[0], abs=1e-8)
            assert result.se_post == pytest.approx(ses[1], abs=1e-8)
            assert result.se_x == pytest.approx(ses[2], abs=1e-8)
            assert result.cov_prepost == pytest.approx(cov01, abs=1e-10)
            assert result.dof == dof

    def test_collinear_raises_with_column(self, rng):
        panel = random_panel(rng, n_pairs=15, n_sectors=2)
        broken = dataclasses.replace(panel, market_x=np.zeros_like(panel.market_x))
        with pytest.raises(ValueError, match="collinear design: column 'market_x' carries no independent"):
            fit(broken)

    @pytest.mark.parametrize("noise, fits", [(1e-12, False), (1e-6, True)])
    def test_collinearity_threshold_from_both_sides(self, rng, noise, fits):
        # market_x is 3 x pre_news plus noise at the given relative size: the
        # threshold (1e-8 of the column norm) lies between the two
        panel = random_panel(rng, n_pairs=80, n_sectors=4)
        pre_news = np.column_stack((panel.news_value, np.zeros(len(panel.news_value))))
        market_x = 3.0 * pre_news + noise * rng.normal(size=pre_news.shape)
        panel = dataclasses.replace(panel, market_x=market_x)
        if fits:
            assert math.isfinite(fit(panel).beta_x)
        else:
            with pytest.raises(ValueError, match="collinear design: column 'market_x'"):
                fit(panel)

    def test_insufficient_data_raises(self, rng):
        panel = random_panel(rng, n_pairs=2, n_sectors=1)  # 4 obs, 1 sector, dof = 0
        with pytest.raises(ValueError, match="4 observations cannot support 1 absorbed sectors"):
            fit(panel)

    def test_row_order_invariance(self, rng):
        panel = random_panel(rng, n_pairs=60, n_sectors=8)
        # a panel's rows are pairs, each pre then post, so pairs are what can move
        order = np.random.default_rng(5).permutation(len(panel.news_id))
        columns = ("news_id", "firm_id", "sector", "market", "p_pos", "p_neg", "y", "market_x")
        shuffled = dataclasses.replace(panel, **{c: getattr(panel, c)[order] for c in columns})
        a = fit(panel)
        b = fit(shuffled)
        for name in ("beta_pre", "beta_post", "beta_x", "se_pre", "se_post", "se_x", "diff", "diff_se", "diff_t", "diff_p"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sector_numbering_leaves_fit_bit_equal(self, seed, data):
        # sector codes only group rows: permuting the labels and renumbering the
        # codes to match must not move one bit of the fit
        panel = random_panel(np.random.default_rng(seed), n_pairs=50, n_sectors=7)
        labels = panel.sector_labels
        perm = np.array(data.draw(st.permutations(range(len(labels)))), dtype=np.int64)
        renumbered = dataclasses.replace(panel, sector_labels=labels[perm],
                                         sector=np.argsort(perm)[panel.sector])
        for robust in (False, True):
            assert repr(fit(renumbered, robust)) == repr(fit(panel, robust))

    def test_constant_shift_absorbed(self, rng):
        panel = random_panel(rng, n_pairs=40, n_sectors=5)
        shifted = dataclasses.replace(panel, y=panel.y + 17.5)
        a, b = fit(panel), fit(shifted)
        assert a.beta_pre == pytest.approx(b.beta_pre, abs=1e-12)
        assert a.beta_post == pytest.approx(b.beta_post, abs=1e-12)
        assert a.beta_x == pytest.approx(b.beta_x, abs=1e-12)

    def test_residual_orthogonality(self, rng):
        panel = random_panel(rng, n_pairs=80, n_sectors=6)
        design = within_transform(panel)
        result = fit(panel)
        beta = np.array([result.beta_pre, result.beta_post, result.beta_x])
        resid = design.y - design.X @ beta
        gram = design.X.T @ resid
        norms = np.linalg.norm(design.X, axis=0) * np.linalg.norm(resid)
        assert np.all(np.abs(gram) <= 1e-8 * np.maximum(norms, 1.0))

    def test_robust_covariance_differs_but_close_on_homoskedastic(self, rng):
        panel = random_panel(rng, n_pairs=400, n_sectors=4)
        plain = fit(panel)
        robust = fit(panel, robust=True)
        assert robust.se_pre != plain.se_pre
        assert robust.se_pre == pytest.approx(plain.se_pre, rel=0.2)

    @pytest.mark.parametrize("robust", [False, True], ids=["homoskedastic", "hc1"])
    def test_covariance_equals_triangular_solve_reference(self, rng, robust):
        # (X'X)^-1 from R^-1 by a triangular solve against the identity, the way
        # fit computed it before, around fit's own beta; beta itself within
        # 1e-12 of the triangular solve. Column scales spread wide, some
        # near-collinear
        for k in range(60):
            panel = random_panel(rng, n_pairs=int(rng.integers(10, 150)),
                                 n_sectors=int(rng.integers(1, 6)))
            market_x = panel.market_x
            if k % 3 == 0:  # market_x close to a mix of the two news columns
                market_x = panel.news_value[:, None] * [1.0, rng.normal()] + 1e-5 * market_x
            y_scale, x_scale = 10.0 ** rng.uniform(-6, 6, size=2)
            panel = dataclasses.replace(panel, y=panel.y * y_scale, market_x=market_x * x_scale)
            result = fit(panel, robust=robust)
            design = within_transform(panel)
            Q, R = np.linalg.qr(design.X)
            beta = np.array([result.beta_pre, result.beta_post, result.beta_x])
            np.testing.assert_allclose(beta, solve_triangular(R, Q.T @ design.y), rtol=1e-12, atol=0)
            resid = design.y - design.X @ beta
            r_inv = solve_triangular(R, np.eye(3))
            xtx_inv = r_inv @ r_inv.T
            if robust:
                meat = (design.X * resid[:, None] ** 2).T @ design.X
                cov = xtx_inv @ meat @ xtx_inv * (len(design.y) / result.dof)
            else:
                cov = float(resid @ resid) / result.dof * xtx_inv
            se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
            assert (result.se_pre, result.se_post, result.se_x, result.cov_prepost) == (
                se[0], se[1], se[2], cov[0, 1])


class TestDiffTest:
    def test_equal_betas_give_unit_p(self, rng):
        panel = random_panel(rng, n_pairs=30, n_sectors=3)
        result = fit(panel)
        beta = np.array([result.beta_pre, result.beta_pre])
        cov = np.full((2, 2), result.se_pre**2)
        assert _diff_fields(beta, cov, result.dof) == (0.0, 0.0, 0.0, 1.0)

    def test_reparameterization_oracle(self, rng):
        for _ in range(10):
            panel = random_panel(rng, n_pairs=int(rng.integers(20, 100)), n_sectors=int(rng.integers(1, 8)))
            result = fit(panel)
            diff, diff_se = reparameterized_fit(panel)
            assert result.diff == pytest.approx(diff, abs=1e-10)
            assert result.diff_se == pytest.approx(diff_se, abs=1e-10)

    def test_degenerate_variance_raises(self, rng):
        panel = random_panel(rng, n_pairs=30, n_sectors=3)
        result = fit(panel)
        beta = np.array([result.beta_pre, result.beta_post])
        with pytest.raises(ValueError, match="zero variance with nonzero difference"):
            _diff_fields(beta, np.zeros((2, 2)), result.dof)
        with pytest.raises(ValueError, match="negative difference variance"):
            _diff_fields(beta, np.array([[1.0, 2.0], [2.0, 1.0]]), result.dof)

    # unit variances and cov_prepost = 1 + 2**-k give a difference variance of
    # exactly -2**(1 - k): about -4.5e-13 for k = 42, inside the clamp to 0,
    # and about -7.3e-12 for k = 38, past it
    @pytest.mark.parametrize("k, beta_post, expected", [
        (42, 0.25, (0.0, 0.0, 0.0, 1.0)),
        (42, 0.5, "zero variance with nonzero difference"),
        (38, 0.25, "negative difference variance"),
    ], ids=["clamped-zero-diff", "clamped-nonzero-diff", "past-the-clamp"])
    def test_tiny_negative_variance_clamps_to_zero(self, k, beta_post, expected):
        cov = np.array([[1.0, 1.0 + 2.0**-k], [1.0 + 2.0**-k, 1.0]])
        assert cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1] == -(2.0 ** (1 - k))
        beta = np.array([0.25, beta_post])
        if isinstance(expected, tuple):
            assert _diff_fields(beta, cov, 10) == expected
        else:
            with pytest.raises(ValueError, match=expected):
                _diff_fields(beta, cov, 10)

    def test_diff_se_identity(self, rng):
        panel = random_panel(rng, n_pairs=70, n_sectors=6)
        r = fit(panel)
        assert r.diff == r.beta_post - r.beta_pre
        assert r.diff_se**2 == pytest.approx(
            r.se_pre**2 + r.se_post**2 - 2.0 * r.cov_prepost, abs=1e-12
        )


class TestPValue:
    # dof 1 to 120, then log-spaced to 1e6; t from 1e-3 to 40, plus 0
    GRID_DOF = np.unique(np.concatenate([
        np.arange(1, 121), np.round(np.logspace(np.log10(120), 6, 121)),
    ]).astype(np.int64))
    GRID_T = np.concatenate([[0.0, 1.959963984540054, 39.999], np.logspace(-3, np.log10(40), 241)])

    def test_two_sided_p_matches_stdtr_on_grid(self):
        # scipy is the reference for dof >= 2; at dof 1 and small t its own value is
        # off (see the closed forms below). Below the normal range scipy gives 0
        # where this gives a subnormal
        worst = 0.0
        for dof in self.GRID_DOF[self.GRID_DOF >= 2]:
            ref = 2.0 * stdtr(dof, -self.GRID_T)
            got = np.array([two_sided_p(t, int(dof)) for t in self.GRID_T])
            normal = ref >= sys.float_info.min
            assert np.all(got[~normal] < sys.float_info.min)
            err = np.abs(got - ref)[normal] / ref[normal]
            worst = max(worst, float(np.max(err / np.maximum(1.0, self.GRID_T[normal] ** 2))))
        assert worst <= P_RTOL

    @pytest.mark.parametrize("dof", [1, 2])
    def test_two_sided_p_matches_closed_forms(self, dof):
        for t in np.concatenate([np.logspace(-12, np.log10(40), 241), [1e3]]):
            if dof == 1:
                exact = 2.0 / math.pi * math.atan(1.0 / t)
            else:
                s = math.sqrt(2.0 + t * t)
                exact = 2.0 / (s * (s + t))
            assert two_sided_p(t, dof) == pytest.approx(exact, rel=P_RTOL * max(1.0, t * t), abs=0)

    def test_two_sided_p_huge_dof_stays_finite_and_close(self):
        for dof in np.unique(np.round(np.logspace(0, 8, 81)).astype(np.int64)):
            ref = 2.0 * stdtr(dof, -self.GRID_T)
            got = np.array([two_sided_p(t, int(dof)) for t in self.GRID_T])
            assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))
            assert np.max(np.abs(got - ref)) <= 1e-10

    def test_two_sided_p_zero_and_underflow(self):
        for dof in (1, 2, 29, 30, 1000, 10**8):
            assert two_sided_p(0.0, dof) == 1.0
            assert two_sided_p(-0.0, dof) == 1.0
            assert two_sided_p(1e-200, dof) == 1.0  # t * t underflows
            assert two_sided_p(-3.0, dof) == two_sided_p(3.0, dof)
            for t in (1e300, math.inf):
                assert two_sided_p(t, dof) < 1e-290
        for dof, t in ((30, 1e200), (1000, 200.0), (10**6, 60.0), (10**8, 60.0)):
            assert two_sided_p(t, dof) == 0.0

    def test_gamma_ratio_series_meets_math_gamma(self):
        # above a = 15 the asymptotic series stands in for math.gamma, which is
        # accurate to a few ulp and finite up to a = 171
        for a in np.arange(15.0, 171.5, 0.5):
            exact = math.gamma(a + 0.5) / math.gamma(a)
            assert _gamma_ratio(a) == pytest.approx(exact, rel=2e-15, abs=0)

    def test_fit_p_value_is_two_sided_t(self, rng):
        from scipy import stats

        for n_pairs in (8, 30, 200):
            r = fit(random_panel(rng, n_pairs=n_pairs, n_sectors=3))
            assert r.diff_p == pytest.approx(float(2.0 * stats.t.sf(abs(r.diff_t), r.dof)),
                                             rel=P_RTOL * max(1.0, r.diff_t**2), abs=0)

    def test_cli_import_and_run_load_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: neither importing the CLI nor a small
        # run (simulate, then fit every cell) may load any scipy module
        script = (
            "import sys\n"
            "import newsprop.cli as cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "d = sys.argv[1]\n"
            "assert cli.main(['simulate', '--config', f'{d}/sim.cfg', '--windows', '1',\n"
            "                 '--out', d]) == 0\n"
            "inputs = [a for k in ('firms', 'prices', 'indices', 'news', 'edges')\n"
            "          for a in ('--' + k, f'{d}/{k}.csv')]\n"
            "assert cli.main(['run', *inputs, '--mode', 'own,supplier', '--windows', '1',\n"
            "                 '--out', f'{d}/out']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        (tmp_path / "sim.cfg").write_text("n_firms = 20\nn_days = 80\nseed = 3\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "[]"
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "fits.csv").is_file()


class TestExport:
    def test_header_and_rows(self, rng, tmp_path):
        panel = random_panel(rng, n_pairs=30, n_sectors=3)
        result = fit(panel)
        out = tmp_path / "fits.csv"
        write_fits([result], out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(FIT_HEADER)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "own"
        assert int(cells[-1]) == result.n_obs
