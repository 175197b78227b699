"""Presentation artifacts as plain data: effect-plot rows, coefficient tables,
histograms. Output is plotting data, not rendered images."""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Optional, Sequence, Union

from .csvio import write_rows
from .regress import FitResult

HIST_HEADER = ("bin", "count")

# 95% normal-based interval half-width per standard error
CI_MULTIPLIER = 1.96


class EffectPlotRow(NamedTuple):
    """One dot-and-interval point: x = -w carries beta_pre, x = +w beta_post.
    The field order is the column order of effects.csv."""

    mode: str
    polarity: str
    w: int
    x: int
    beta: float
    ci_lo: float
    ci_hi: float


EFFECTS_HEADER = EffectPlotRow._fields


def effect_plot_data(fits: Sequence[FitResult]) -> list[EffectPlotRow]:
    """Two rows per fit (x = -w and x = +w) with 95% intervals, x ascending."""
    seen = set()
    rows = []
    for f in fits:
        key = (f.mode, f.polarity, f.w)
        if key in seen:
            raise ValueError(f"duplicate fit for {key}")
        seen.add(key)
        for x, beta, se in ((-f.w, f.beta_pre, f.se_pre), (f.w, f.beta_post, f.se_post)):
            half = CI_MULTIPLIER * se
            rows.append(EffectPlotRow(f.mode, f.polarity, f.w, x, beta, beta - half, beta + half))
    rows.sort(key=lambda r: (r.mode, r.polarity, r.x))
    return rows


def write_effects(rows: Sequence[EffectPlotRow], path) -> None:
    write_rows(path, EFFECTS_HEADER, rows)


def sci_notation(value: float) -> str:
    """Three significant digits in the table's power-of-ten style, e.g. 3.23x10^-1."""
    if value == 0.0 or not math.isfinite(value):
        return f"{value:.2f}"
    exponent = math.floor(math.log10(abs(value)))
    mantissa = value / 10.0**exponent
    if abs(round(mantissa, 2)) >= 10.0:  # rounding pushed the mantissa over a decade
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.2f}×10^{exponent}"


def coefficient_table(fits: Sequence[FitResult]) -> str:
    """Fixed-layout text table, one column per window, for one mode/polarity."""
    if not fits:
        return ""
    modes = {(f.mode, f.polarity) for f in fits}
    if len(modes) > 1:
        raise ValueError(f"mixed mode/polarity in one table: {sorted(modes)}")
    ordered = sorted(fits, key=lambda f: f.w)
    if len({f.w for f in ordered}) != len(ordered):
        raise ValueError("duplicate window in table fits")

    mode, polarity = next(iter(modes))
    label_width = 22
    rows = [
        ("Time window (days)", [str(f.w) for f in ordered]),
        ("beta_pre", [sci_notation(f.beta_pre) for f in ordered]),
        ("", [f"({sci_notation(f.se_pre)})" for f in ordered]),
        ("beta_post", [sci_notation(f.beta_post) for f in ordered]),
        ("", [f"({sci_notation(f.se_post)})" for f in ordered]),
        ("post - pre", [f"{f.diff:.3f}" for f in ordered]),
        ("p value", [f"{f.diff_p:.2f}" for f in ordered]),
        ("Observations", [f"{f.n_obs:,}" for f in ordered]),
    ]
    col_width = max(12, max(len(cell) for _, cells in rows for cell in cells) + 2)
    lines = [f"Effect of {polarity} sentiment, {mode} stock prices"]
    lines.append("-" * (label_width + col_width * len(ordered)))
    for label, cells in rows:
        lines.append(label.ljust(label_width) + "".join(c.rjust(col_width) for c in cells))
    lines.append("-" * (label_width + col_width * len(ordered)))
    return "\n".join(lines) + "\n"


def histogram(
    values: Sequence[Union[int, float]], width: Optional[float] = None
) -> list[tuple[Union[int, float], int]]:
    """Bin values; integer counts when ``width`` is None, else fixed width.

    Bins are contiguous (empty interior bins appear with count 0) and the
    counts always sum to the number of inputs. An integer bin is a width-1
    bin labelled by its int: value v falls in bin floor(v).
    """
    if width is not None and width <= 0.0:
        raise ValueError(f"bin width must be positive, got {width}")
    if len(values) == 0:
        if width is None:
            return []
        raise ValueError("fixed-width histogram needs at least one value")
    counts = Counter(math.floor(v if width is None else v / width) for v in values)
    bins = range(min(counts), max(counts) + 1)
    return [(b if width is None else b * width, counts[b]) for b in bins]


def write_histogram(bins: Sequence[tuple[Union[int, float], int]], path) -> None:
    write_rows(path, HIST_HEADER, bins)
