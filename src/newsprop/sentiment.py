"""Per-article sentiment probability triples and firm-mention lists.

Sentiment is consumed as data: each article arrives with positive, neutral,
and negative probabilities already attached, one file row per mentioned firm.
Triples must sit on the probability simplex within a small tolerance and are
stored renormalized so they sum to exactly 1.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

from .csvio import RowRejection, parse_date, read_rows

NEWS_HEADER = ("news_id", "date", "firm_id", "p_pos", "p_neu", "p_neg")

SIMPLEX_TOL = 1e-3
# rows of one article must repeat the same triple; tolerance covers reformatting
REPEAT_TOL = 1e-9


class NewsEvent(NamedTuple):
    """One dated article with its mentioned firms and sentiment triple.

    A tuple, so a list of events transposes into its columns with
    ``zip(*events)``, as the panel's pair tables read them.
    """

    news_id: str
    date: dt.date
    mentions: frozenset[str]
    p_pos: float
    p_neu: float
    p_neg: float


@dataclass(frozen=True)
class MentionHistogram:
    mentions_per_article: dict[int, int]
    articles_per_firm: dict[str, int]


@dataclass(frozen=True)
class NewsStore:
    """Validated events keyed by news_id."""

    events: Mapping[str, NewsEvent]

    def __len__(self) -> int:
        return len(self.events)


def _triple_fault(triple: tuple[float, float, float]) -> str:
    """The fault of a triple the simplex test rejected; finite and in range, it is the sum."""
    if any(not math.isfinite(p) for p in triple):
        return "non-finite probability"
    if any(p < 0.0 or p > 1.0 for p in triple):
        return "probability outside [0, 1]"
    return f"probabilities sum to {sum(triple):.6g}"


def load_news(path) -> tuple[NewsStore, list[RowRejection]]:
    """Load a news file (header ``news_id,date,firm_id,p_pos,p_neu,p_neg``).

    One row per (article, mentioned firm); rows of the same news_id must
    carry the same date and the same probability triple. Invalid rows are
    collected and reported, not fatal.
    """
    rejections: list[RowRejection] = []
    articles: dict[str, tuple] = {}  # news_id -> (date, triple, firms), from its first accepted row
    date_of: dict[str, Optional[dt.date]] = {}  # date text -> its day, or None if malformed
    for i, row in read_rows(path, NEWS_HEADER):
        if len(row) != 6:
            rejections.append(RowRejection(i, "wrong column count"))
            continue
        news_id, date_text, firm_id, *prob_text = map(str.strip, row)
        if not news_id or not firm_id:
            rejections.append(RowRejection(i, "empty news_id or firm_id"))
            continue
        if date_text not in date_of:
            try:
                date_of[date_text] = parse_date(date_text)
            except ValueError:
                date_of[date_text] = None
        date = date_of[date_text]
        if date is None:
            rejections.append(RowRejection(i, f"malformed date {date_text!r}"))
            continue
        try:
            p_pos, p_neu, p_neg = map(float, prob_text)
        except ValueError:
            rejections.append(RowRejection(i, "malformed probability"))
            continue
        if not (0.0 <= p_pos <= 1.0 and 0.0 <= p_neu <= 1.0 and 0.0 <= p_neg <= 1.0
                and abs(p_pos + p_neu + p_neg - 1.0) <= SIMPLEX_TOL):
            rejections.append(RowRejection(i, _triple_fault((p_pos, p_neu, p_neg))))
            continue
        article = articles.get(news_id)
        if article is None:
            articles[news_id] = (date, (p_pos, p_neu, p_neg), {firm_id})
            continue
        first_date, triple, firms = article
        if date != first_date:
            rejections.append(RowRejection(i, f"inconsistent date for news_id {news_id}"))
        elif any(abs(a - b) > REPEAT_TOL for a, b in zip((p_pos, p_neu, p_neg), triple)):
            rejections.append(RowRejection(i, f"inconsistent probabilities for news_id {news_id}"))
        elif firm_id in firms:
            rejections.append(RowRejection(i, f"duplicate mention of {firm_id}"))
        else:
            firms.add(firm_id)
    events = {}
    for news_id, (date, (p_pos, p_neu, p_neg), firms) in articles.items():
        total = p_pos + p_neu + p_neg
        events[news_id] = NewsEvent(news_id, date, frozenset(firms),
                                    p_pos / total, p_neu / total, p_neg / total)
    return NewsStore(events), rejections


def mention_histogram(store: NewsStore,
                      registry_firms: Optional[Iterable[str]] = None) -> MentionHistogram:
    """Counts of mentions per article and of articles per firm.

    When ``registry_firms`` is supplied, firms never mentioned appear with a
    zero count in ``articles_per_firm``.
    """
    events = store.events.values()
    articles_per_firm = Counter(dict.fromkeys(() if registry_firms is None else registry_firms, 0))
    articles_per_firm.update(firm for event in events for firm in event.mentions)
    return MentionHistogram(
        mentions_per_article=dict(sorted(Counter(len(event.mentions) for event in events).items())),
        articles_per_firm=dict(sorted(articles_per_firm.items())),
    )
