"""
Supply-chain snapshots and news-mention distributions
=====================================================

Yearly snapshot statistics in the style of a firms-and-links summary table,
plus the two mention histograms: firms per article and articles per firm
(including the firms that are never mentioned at all).
"""

import tempfile

from newsprop.firms import load_firms
from newsprop.graph import load_edges
from newsprop.report import histogram
from newsprop.sentiment import load_news, mention_histogram
from newsprop.sim import SimConfig, simulate

bundle = simulate(SimConfig(n_firms=120, n_days=120, edge_prob=0.03, news_rate=2.5, seed=8))
# the network, the news and the registry, read back from the written files
with tempfile.TemporaryDirectory(prefix="newsprop-demo-") as tmp:
    paths = bundle.write(tmp)
    graph = load_edges(paths["edges"])
    news, _ = load_news(paths["news"])
    firms, _ = load_firms(paths["firms"])

year = graph.years[0]
stats = graph.network_stats(year)
print(f"snapshot {year}")
print(f"  Number of firms    {stats.n_firms}")
print(f"  Number of links    {stats.n_links}")
print(f"  Maximum indegree   {stats.max_indegree}")
print(f"  Maximum outdegree  {stats.max_outdegree}")

some_firm = min(firms)
print(f"\nfirm {some_firm}: suppliers {sorted(graph.suppliers_of(some_firm, year))}")
print(f"firm {some_firm}: clients   {sorted(graph.clients_of(some_firm, year))}")

hist = mention_histogram(news, registry_firms=firms)
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
