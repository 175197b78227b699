"""
Windowed pre/post price changes on a trading calendar
=====================================================

A news article lands on Friday June 11th and we measure the average daily
percentage change of the stock over a 3-day window before and after the
disclosure. Weekends carry no prices, so the window blocks skip them.
"""

import datetime as dt
import math

import numpy as np

from newsprop.market import PRE, POST, window_change
from newsprop.sim import SimConfig, simulate

# a firm from a tiny simulated market gives us a realistic series
bundle = simulate(SimConfig(n_firms=5, n_days=30, news_rate=0.0, seed=3))
series = bundle.prices["F00000"]

news_date = bundle.trading_dates[10]
print(f"news date: {news_date} ({news_date.strftime('%A')})")

def anchor(date: dt.date) -> int:
    """Position of the first trading date on or after ``date``."""
    return int(np.searchsorted(series.dates, np.datetime64(date, "D")))


p = anchor(news_date)
w = 3
blocks = {
    "A (far pre)": series.dates[p - 2 * w : p - w],
    "B (near pre)": series.dates[p - w : p],
    "C (post)": series.dates[p : p + w],
}
for name, dates in blocks.items():
    print(f"  block {name}: {[d.item().isoformat() for d in dates]}")

pre = window_change(series, news_date, w, PRE)
post = window_change(series, news_date, w, POST)
print(f"pre-news change : {pre:+.4f} percent/day")
print(f"post-news change: {post:+.4f} percent/day")

# the same by hand: log of the block averages, differenced, per day, in percent
closes = series.values
mean_a = closes[p - 2 * w : p - w].mean()
mean_b = closes[p - w : p].mean()
hand_pre = (math.log(mean_b) - math.log(mean_a)) / w * 100.0
print(f"hand check (pre): {hand_pre:+.4f} percent/day")

# Saturday-dated articles anchor on the following Monday
saturday = news_date + dt.timedelta(days=(5 - news_date.weekday()) % 7 or 7)
print(f"\nan article dated {saturday} ({saturday.strftime('%A')}) anchors on "
      f"{series.dates[anchor(saturday)].item()}")
