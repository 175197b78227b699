"""
Recovering injected effects from a synthetic market
===================================================

The simulator plants a known pre-news drift (information leaking out early)
and a post-news drift into every mentioned firm's price, plus a ten times
weaker drift into the firm's suppliers. We then run the full estimation
pipeline and compare the fitted coefficients with the analytic expectations.
"""

from newsprop.panel import build_panel
from newsprop.regress import fit
from newsprop.report import coefficient_table
from newsprop.sim import SimConfig, expected_betas, simulate

config = SimConfig(
    n_firms=300,
    n_sectors=12,
    n_markets=2,
    n_days=250,
    edge_prob=0.02,
    news_rate=20.0,
    sentiment_alpha=(0.25, 0.25, 0.25),
    gamma_pre=0.3,   # percent/day of leaked drift per unit of centered positiveness
    gamma_post=0.9,  # percent/day after disclosure
    gamma_sup=0.09,  # propagation to suppliers
    seed=30,
)
stores = simulate(config).stores()

print("mode      w   fitted pre   expected   fitted post  expected   diff      p")
fits = []
for mode in ("own", "supplier"):
    for w in (1, 2, 3):
        result = fit(build_panel(stores, mode, "positive", w))
        expect = expected_betas(config, w, mode, "positive")
        fits.append(result)
        print(
            f"{mode:9s} {w}   {result.beta_pre:+.4f}     {expect.beta_pre:+.4f}    "
            f"{result.beta_post:+.4f}      {expect.beta_post:+.4f}   {result.diff:+.4f}  {result.diff_p:.3f}"
        )

print()
print(coefficient_table([f for f in fits if f.mode == "own"]))

own_w1 = next(f for f in fits if f.mode == "own" and f.w == 1)
print(f"net disclosure effect at w=1: {own_w1.diff:+.4f} percent/day (t = {own_w1.diff_t:.1f})")
print("note: the raw-probability regressors shrink the recovered gap relative to")
print("the injected 0.6; expected_betas prices that in, so fit and oracle agree.")
