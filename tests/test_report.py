from __future__ import annotations

import csv

import numpy as np
import pytest

from newsprop.regress import FitResult
from newsprop.report import (
    coefficient_table,
    effect_plot_data,
    histogram,
    sci_notation,
    write_effects,
    write_histogram,
)


def fake_fit(w, beta_pre=0.3, beta_post=0.9, se=0.01, mode="own", polarity="positive", n_obs=1000):
    diff = beta_post - beta_pre
    return FitResult(
        mode=mode,
        polarity=polarity,
        w=w,
        beta_pre=beta_pre,
        beta_post=beta_post,
        beta_x=1.0,
        se_pre=se,
        se_post=se,
        se_x=se,
        cov_prepost=0.0,
        n_obs=n_obs,
        dof=n_obs - 10,
        diff=diff,
        diff_se=se * 2**0.5,
        diff_t=diff / (se * 2**0.5),
        diff_p=0.0,
    )


class TestEffectPlotData:
    def test_single_fit_maps_to_two_rows(self):
        rows = effect_plot_data([fake_fit(1, beta_pre=0.3, beta_post=0.9, se=0.01)])
        assert [(r.x, r.beta) for r in rows] == [(-1, 0.3), (1, 0.9)]
        assert rows[0].ci_lo == pytest.approx(0.3 - 0.0196)
        assert rows[0].ci_hi == pytest.approx(0.3 + 0.0196)

    def test_full_grid_gives_sixteen_sorted_rows(self):
        grid = (1, 2, 3, 4, 5, 30, 180, 365)
        rows = effect_plot_data([fake_fit(w) for w in grid])
        assert len(rows) == 16
        xs = [r.x for r in rows]
        assert xs == sorted(xs)
        assert xs[0] == -365 and xs[-1] == 365

    def test_empty_input(self):
        assert effect_plot_data([]) == []

    def test_duplicate_cell_raises(self):
        with pytest.raises(ValueError, match=r"duplicate fit for \('own', 'positive', 1\)"):
            effect_plot_data([fake_fit(1), fake_fit(1)])

    def test_round_trip_reconstructs_betas(self, tmp_path):
        rows = effect_plot_data([fake_fit(w) for w in (1, 5, 30)])
        out = tmp_path / "effects.csv"
        write_effects(rows, out)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for row, orig in zip(parsed, rows):
            assert float(row["beta"]) == pytest.approx(orig.beta, abs=1e-11)
            assert float(row["ci_lo"]) == pytest.approx(orig.ci_lo, abs=1e-11)
            assert int(row["x"]) == orig.x


class TestSciNotation:
    def test_table_style_value(self):
        assert sci_notation(0.323) == "3.23×10^-1"

    def test_small_standard_error(self):
        assert sci_notation(0.00482) == "4.82×10^-3"

    def test_negative_value(self):
        assert sci_notation(-0.005) == "-5.00×10^-3"

    def test_rounding_carries_decade(self):
        assert sci_notation(0.0999999) == "1.00×10^-1"

    def test_zero(self):
        assert sci_notation(0.0) == "0.00"


class TestCoefficientTable:
    def test_single_fit_layout(self):
        text = coefficient_table([fake_fit(1, beta_pre=0.323, beta_post=0.923)])
        lines = [l for l in text.splitlines() if l]
        assert any("3.23×10^-1" in l for l in lines)
        assert any("9.23×10^-1" in l for l in lines)
        labels = [l.split("  ")[0].strip() for l in lines]
        for label in ("beta_pre", "beta_post", "post - pre", "p value", "Observations"):
            assert any(l.startswith(label) for l in lines)

    def test_diff_row_consistent_with_betas(self):
        fits = [fake_fit(w, beta_pre=0.1 * w, beta_post=0.25 * w) for w in (1, 2, 5)]
        text = coefficient_table(fits)
        diff_line = next(l for l in text.splitlines() if l.startswith("post - pre"))
        printed = diff_line.split()[3:]
        for fit, cell in zip(fits, printed):
            assert cell == f"{fit.beta_post - fit.beta_pre:.3f}"

    def test_observations_formatted_with_separators(self):
        text = coefficient_table([fake_fit(1, n_obs=9409978)])
        assert "9,409,978" in text

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValueError):
            coefficient_table([fake_fit(1, mode="own"), fake_fit(2, mode="supplier")])

    def test_duplicate_window_rejected(self):
        with pytest.raises(ValueError, match="duplicate window in table fits"):
            coefficient_table([fake_fit(1), fake_fit(2), fake_fit(1, beta_pre=0.5)])

    def test_empty_is_empty(self):
        assert coefficient_table([]) == ""


class TestHistogram:
    def test_integer_counts(self):
        assert histogram([1, 1, 2, 3]) == [(1, 2), (2, 1), (3, 1)]

    def test_empty_integer_counts(self):
        assert histogram([]) == []

    def test_integer_counts_fill_gaps(self):
        assert histogram([1, 4]) == [(1, 1), (2, 0), (3, 0), (4, 1)]

    def test_values_bin_by_floor(self):
        # -0.5 lies in [-1, 0), not in 0.5's bin
        assert histogram([-0.5, 0.5]) == [(-1, 1), (0, 1)]
        assert histogram([-2, 0, 1.5]) == [(-2, 1), (-1, 0), (0, 1), (1, 1)]

    def test_fixed_width_counts_sum(self, rng):
        values = rng.dirichlet((1.2, 2.6, 1.6), 1000)[:, 1]
        bins = histogram(values, width=0.1)
        assert sum(c for _, c in bins) == 1000
        edges = [b for b, _ in bins]
        assert edges == pytest.approx(np.arange(len(edges)) * 0.1 + edges[0])

    def test_bad_width_raises(self):
        with pytest.raises(ValueError, match="bin width must be positive, got 0.0"):
            histogram([1.0], width=0.0)

    def test_empty_fixed_width_raises(self):
        with pytest.raises(ValueError):
            histogram([], width=0.5)

    def test_write_schema(self, tmp_path):
        out = tmp_path / "hist.csv"
        write_histogram(histogram([1, 1, 2]), out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bin,count"
        assert lines[1:] == ["1,2", "2,1"]
