from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import stdtr

from conftest import make_panel, random_panel
from newsprop.errors import (
    CollinearError,
    DegenerateVarianceError,
    EmptyPanelError,
    InsufficientDataError,
)
from newsprop.regress import FIT_HEADER, _diff_fields, fit, within_transform, write_fits


def observation_rows(panel):
    """(sector, is_pre, news_value, market_x, y) per observation, pre then post per pair."""
    return [
        (panel.sector[k], j == 0, panel.news_value[k], panel.market_x[k, j], panel.y[k, j])
        for k in range(len(panel.news_id))
        for j in (0, 1)
    ]


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
        with pytest.raises(EmptyPanelError):
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
        rows = observation_rows(panel)
        stacked = np.array([
            (y, news if is_pre else 0.0, 0.0 if is_pre else news, x)
            for _, is_pre, news, x, y in rows
        ])
        labels, codes = np.unique([row[0] for row in rows], return_inverse=True)
        sums = np.zeros((len(labels), 4))
        np.add.at(sums, codes, stacked)
        demeaned = stacked - (sums / np.bincount(codes)[:, None])[codes]
        design = within_transform(panel)
        assert design.y.tobytes() == demeaned[:, 0].tobytes()
        assert design.X.tobytes() == np.ascontiguousarray(demeaned[:, 1:]).tobytes()
        assert design.sector_labels == labels.tolist()

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
        with pytest.raises(CollinearError) as err:
            fit(broken)
        assert err.value.column == "market_x"

    def test_insufficient_data_raises(self, rng):
        panel = random_panel(rng, n_pairs=2, n_sectors=1)  # 4 obs, 1 sector, dof = 0
        with pytest.raises(InsufficientDataError):
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
        with pytest.raises(DegenerateVarianceError):
            _diff_fields(beta, np.zeros((2, 2)), result.dof)

    def test_diff_se_identity(self, rng):
        panel = random_panel(rng, n_pairs=70, n_sectors=6)
        r = fit(panel)
        assert r.diff == r.beta_post - r.beta_pre
        assert r.diff_se**2 == pytest.approx(
            r.se_pre**2 + r.se_post**2 - 2.0 * r.cov_prepost, abs=1e-12
        )


class TestPValue:
    def test_stdtr_equals_t_survival_function(self):
        from scipy import stats

        t = np.concatenate([np.linspace(0.0, 40.0, 801), [1e-12, 1.959963984540054, 39.999]])
        dof = np.unique(np.round(np.logspace(0.0, 6.0, 121)).astype(np.int64))
        tt, dd = np.meshgrid(t, dof)
        assert np.array_equal(2.0 * stdtr(dd, -np.abs(tt)), 2.0 * stats.t.sf(np.abs(tt), dd))

    def test_fit_p_value_is_two_sided_t(self, rng):
        from scipy import stats

        for n_pairs in (8, 30, 200):
            r = fit(random_panel(rng, n_pairs=n_pairs, n_sectors=3))
            assert r.diff_p == float(2.0 * stats.t.sf(abs(r.diff_t), r.dof))

    def test_cli_import_loads_no_scipy_stats(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", "import newsprop.cli, sys; print('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


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
