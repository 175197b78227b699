"""
Supply-chain snapshots and news-mention distributions
=====================================================

Yearly snapshot statistics in the style of a firms-and-links summary table,
plus the two mention histograms: firms per article and articles per firm
(including the firms that are never mentioned at all).
"""

from newsprop.report import histogram
from newsprop.sentiment import mention_histogram
from newsprop.sim import SimConfig, simulate

bundle = simulate(SimConfig(n_firms=120, n_days=120, edge_prob=0.03, news_rate=2.5, seed=8))
inputs = bundle.inputs()  # the five arguments a Stores is made from
graph = inputs["graph"]

year = graph.years[0]
stats = graph.network_stats(year)
print(f"snapshot {year}")
print(f"  Number of firms    {stats.n_firms}")
print(f"  Number of links    {stats.n_links}")
print(f"  Maximum indegree   {stats.max_indegree}")
print(f"  Maximum outdegree  {stats.max_outdegree}")

some_firm = next(iter(sorted(inputs["prices"])))
print(f"\nfirm {some_firm}: suppliers {sorted(graph.suppliers_of(some_firm, year))}")
print(f"firm {some_firm}: clients   {sorted(graph.clients_of(some_firm, year))}")

hist = mention_histogram(inputs["news"], registry_firms=inputs["firms"])
print("\nfirms mentioned per article:")
for k, count in hist.mentions_per_article.items():
    print(f"  {k} firms: {count} articles")

per_firm = list(hist.articles_per_firm.values())
never = sum(1 for c in per_firm if c == 0)
print(f"\n{never} of {len(per_firm)} firms were never mentioned "
      f"({100.0 * never / len(per_firm):.1f}%)")
print("articles-per-firm histogram (integer bins):")
for b, count in histogram(per_firm):
    print(f"  {b:3d} articles: {'#' * count}")
