from __future__ import annotations

import datetime as dt
import math
from typing import Optional

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from conftest import simple_event
from newsprop.csvio import RowRejection, parse_date, read_rows
from newsprop.sentiment import (
    NEWS_HEADER, REPEAT_TOL, SIMPLEX_TOL, NewsEvent, NewsStore, load_news, mention_histogram,
)


def write_news(tmp_path, rows):
    path = tmp_path / "news.csv"
    lines = ["news_id,date,firm_id,p_pos,p_neu,p_neg"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadNews:
    def test_accepts_and_renormalizes(self, tmp_path):
        store, rejections = load_news(
            write_news(tmp_path, [("n1", "2008-09-11", "A", 0.93, 0.01, 0.06)])
        )
        assert rejections == []
        event = store.events["n1"]
        assert event.p_pos + event.p_neu + event.p_neg == pytest.approx(1.0, abs=0.0)
        assert event.p_pos == pytest.approx(0.93, abs=1e-9)

    def test_near_simplex_renormalized_exactly(self, tmp_path):
        store, rejections = load_news(
            write_news(tmp_path, [("n1", "2016-05-02", "A", 0.5002, 0.2999, 0.1999)])
        )
        assert rejections == []
        event = store.events["n1"]
        assert event.p_pos + event.p_neu + event.p_neg == 1.0

    def test_simplex_violation_rejected(self, tmp_path):
        store, rejections = load_news(
            write_news(tmp_path, [("n1", "2016-05-02", "A", 0.2, 0.2, 0.2)])
        )
        assert len(store) == 0
        assert len(rejections) == 1
        assert "sum" in rejections[0].reason

    def test_multi_mention_fans_out(self, tmp_path):
        rows = [
            ("n1", "2016-05-02", "A", 1.0, 0.0, 0.0),
            ("n1", "2016-05-02", "B", 1.0, 0.0, 0.0),
            ("n1", "2016-05-02", "C", 1.0, 0.0, 0.0),
        ]
        store, rejections = load_news(write_news(tmp_path, rows))
        assert rejections == []
        assert store.events["n1"].mentions == {"A", "B", "C"}

    def test_inconsistent_repeat_rows_rejected(self, tmp_path):
        rows = [
            ("n1", "2016-05-02", "A", 0.5, 0.3, 0.2),
            ("n1", "2016-05-02", "B", 0.6, 0.2, 0.2),
            ("n1", "2016-05-03", "C", 0.5, 0.3, 0.2),
            ("n1", "2016-05-02", "A", 0.5, 0.3, 0.2),
        ]
        store, rejections = load_news(write_news(tmp_path, rows))
        assert [r.row for r in rejections] == [2, 3, 4]
        assert store.events["n1"].mentions == {"A"}

    def test_malformed_rows_rejected(self, tmp_path):
        rows = [
            ("n1", "2016-13-45", "A", 0.5, 0.3, 0.2),
            ("n2", "2016-05-02", "", 0.5, 0.3, 0.2),
            ("n3", "2016-05-02", "A", "x", 0.3, 0.2),
            ("n4", "2016-05-02", "A", 1.2, -0.1, -0.1),
        ]
        store, rejections = load_news(write_news(tmp_path, rows))
        assert len(store) == 0
        assert len(rejections) == 4

    def test_each_bad_triple_and_repeated_bad_date_keeps_its_message(self, tmp_path):
        rows = [
            ("n1", "2016-05-02", "A", "nan", 0.3, 0.2),
            ("n2", "2016-05-02", "A", 0.5, "inf", 0.2),
            ("n3", "2016-05-02", "A", 1.5, 0.3, 0.2),
            ("n4", "2016-05-02", "A", 0.2, 0.2, 0.2),
            ("n5", "2016-02-30", "A", 0.5, 0.3, 0.2),
            ("n6", "2016-05-02", "A", 0.5, 0.3, 0.2),
            ("n7", "2016-02-30", "B", 0.5, 0.3, 0.2),
            ("n8", "2016-05-02", "A", 1.5, "nan", -0.5),
        ]
        store, rejections = load_news(write_news(tmp_path, rows))
        assert [(r.row, r.reason) for r in rejections] == [
            (1, "non-finite probability"),
            (2, "non-finite probability"),
            (3, "probability outside [0, 1]"),
            (4, "probabilities sum to 0.6"),
            (5, "malformed date '2016-02-30'"),
            (7, "malformed date '2016-02-30'"),
            (8, "non-finite probability"),
        ]
        assert list(store.events) == ["n6"]
        assert store.events["n6"].date == dt.date(2016, 5, 2)

    def test_timestamp_truncated(self, tmp_path):
        store, _ = load_news(
            write_news(tmp_path, [("n1", "2016-05-02T09:30:15", "A", 0.5, 0.3, 0.2)])
        )
        assert store.events["n1"].date == dt.date(2016, 5, 2)


def reference_triple_fault(triple: tuple) -> Optional[str]:
    if any(not math.isfinite(p) for p in triple):
        return "non-finite probability"
    if any(p < 0.0 or p > 1.0 for p in triple):
        return "probability outside [0, 1]"
    if abs(sum(triple) - 1.0) > SIMPLEX_TOL:
        return f"probabilities sum to {sum(triple):.6g}"
    return None


def reference_load_news(path):
    """Row by row, each row's checks in turn: an article is a dict of its
    first accepted row's date and triple and its mentions, and a second pass
    turns each into a renormalised ``NewsEvent``, in first-accepted order."""
    rejections, pending = [], {}
    for i, row in read_rows(path, NEWS_HEADER):
        if len(row) != 6:
            rejections.append(RowRejection(i, "wrong column count"))
            continue
        news_id, date_text, firm_id, *prob_text = [field.strip() for field in row]
        if not news_id or not firm_id:
            rejections.append(RowRejection(i, "empty news_id or firm_id"))
            continue
        try:
            date = parse_date(date_text)
        except ValueError:
            rejections.append(RowRejection(i, f"malformed date {date_text!r}"))
            continue
        try:
            triple = tuple(float(t) for t in prob_text)
        except ValueError:
            rejections.append(RowRejection(i, "malformed probability"))
            continue
        fault = reference_triple_fault(triple)
        if fault is not None:
            rejections.append(RowRejection(i, fault))
            continue
        entry = pending.get(news_id)
        if entry is None:
            pending[news_id] = {"date": date, "triple": triple, "mentions": {firm_id}}
        elif date != entry["date"]:
            rejections.append(RowRejection(i, f"inconsistent date for news_id {news_id}"))
        elif any(abs(a - b) > REPEAT_TOL for a, b in zip(triple, entry["triple"])):
            rejections.append(RowRejection(i, f"inconsistent probabilities for news_id {news_id}"))
        elif firm_id in entry["mentions"]:
            rejections.append(RowRejection(i, f"duplicate mention of {firm_id}"))
        else:
            entry["mentions"].add(firm_id)
    events = {}
    for news_id, entry in pending.items():
        p_pos, p_neu, p_neg = entry["triple"]
        total = p_pos + p_neu + p_neg
        events[news_id] = NewsEvent(news_id, entry["date"], frozenset(entry["mentions"]),
                                    p_pos / total, p_neu / total, p_neg / total)
    return NewsStore(events), rejections


SIMPLEX_TRIPLES = [(0.5, 0.3, 0.2), (0.93, 0.01, 0.06), (0.0, 1.0, 0.0), (0.5002, 0.2999, 0.1999)]
# one probability moved within REPEAT_TOL, past it, past it but inside
# SIMPLEX_TOL, or off the simplex
NUDGES = [4e-10, -4e-10, 3e-9, -3e-9, 5e-4, 2e-3]
BAD_TRIPLES = [(0.2, 0.2, 0.2), (math.nan, 0.3, 0.2), (0.5, math.inf, 0.2), (0.5, 0.3, -math.inf),
               (1.5, 0.3, -0.8), (-0.1, 0.6, 0.5), (1.5, math.nan, -0.5)]
BAD_PROBABILITIES = [["x", "0.3", "0.2"], ["", "0.5", "0.5"], ["0_5", "0.3", "0.2"], ["1.0.0", "0", "0"]]
BAD_DATES = ["2016-02-30", "2016/05/02", "", "May 2"]
# each row repeats its article as it is, or with one fault
ROW_FAULTS = ["none"] * 12 + ["date", "padded", "nudge", "bad triple", "bad text", "bad date",
                             "columns", "empty id", "empty firm"]


@st.composite
def news_files(draw):
    """A news file's rows over a few articles, most rows a clean mention of
    one, the others repeating its news_id with a fault."""
    dates = st.sampled_from(["2016-05-02", "2016-05-03", "2016-05-02T09:30"])
    articles = draw(st.lists(st.tuples(st.sampled_from(["n1", "n2", "n3", "n4"]), dates,
                                       st.sampled_from(SIMPLEX_TRIPLES)), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        news_id, date, triple = draw(st.sampled_from(articles))
        firm_id = draw(st.sampled_from("ABCDEF"))
        fault = draw(st.sampled_from(ROW_FAULTS))
        if fault == "date":
            date = draw(dates)
        elif fault == "nudge":
            k = draw(st.integers(0, 2))
            triple = tuple(p + draw(st.sampled_from(NUDGES)) * (j == k) for j, p in enumerate(triple))
        elif fault == "bad triple":
            triple = draw(st.sampled_from(BAD_TRIPLES))
        probabilities = [format(p, draw(st.sampled_from(["", "", ".17e"]))) for p in triple]
        if fault == "bad text":
            probabilities = draw(st.sampled_from(BAD_PROBABILITIES))
        elif fault == "bad date":
            date = draw(st.sampled_from(BAD_DATES))
        fields = [news_id, date, firm_id, *probabilities]
        if fault == "padded":
            fields = [f" {field} " for field in fields]
        elif fault == "columns":
            fields = draw(st.sampled_from([fields[:5], fields + ["0.1"]]))
        elif fault.startswith("empty"):
            fields[0 if fault == "empty id" else 2] = draw(st.sampled_from(["", "  "]))
        rows.append(",".join(fields))
    return rows


class TestLoadNewsReference:
    # no shrink phase: a failing example is reported as drawn, in seconds
    @settings(derandomize=True, database=None, deadline=None, max_examples=150,
              phases=(Phase.explicit, Phase.reuse, Phase.generate),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=news_files())
    def test_equals_row_by_row_reference(self, tmp_path, rows):
        path = tmp_path / "news.csv"
        path.write_text("\n".join([",".join(NEWS_HEADER)] + rows) + "\n", encoding="utf-8")
        store, rejections = load_news(path)
        expected, expected_rejections = reference_load_news(path)
        assert list(store.events) == list(expected.events)
        for news_id, event in store.events.items():
            assert type(event) is NewsEvent
            # field by field, the floats exactly
            assert tuple(event) == tuple(expected.events[news_id])
        assert rejections == expected_rejections


class TestMentionHistogram:
    def test_small_case(self):
        store = NewsStore(
            {
                "n1": simple_event("n1", dt.date(2016, 5, 2), {"A"}),
                "n2": simple_event("n2", dt.date(2016, 5, 3), {"A", "B"}),
            }
        )
        hist = mention_histogram(store)
        assert hist.mentions_per_article == {1: 1, 2: 1}
        assert hist.articles_per_firm == {"A": 2, "B": 1}

    def test_empty_store(self):
        hist = mention_histogram(NewsStore({}))
        assert hist.mentions_per_article == {}
        assert hist.articles_per_firm == {}

    def test_repeat_mentions_counted(self):
        events = {
            f"n{i}": simple_event(f"n{i}", dt.date(2016, 5, 2), {"A"}) for i in range(10)
        }
        hist = mention_histogram(NewsStore(events))
        assert hist.articles_per_firm == {"A": 10}

    def test_registry_adds_zero_count_firms(self):
        store = NewsStore({"n1": simple_event("n1", dt.date(2016, 5, 2), {"A"})})
        hist = mention_histogram(store, registry_firms={"A", "B", "C"})
        assert hist.articles_per_firm == {"A": 1, "B": 0, "C": 0}

    def test_total_mentions_conservation(self, rng):
        events = {}
        for i in range(50):
            k = int(rng.integers(1, 6))
            mentions = {f"F{j}" for j in rng.choice(30, size=k, replace=False)}
            events[f"n{i}"] = simple_event(f"n{i}", dt.date(2016, 5, 2), mentions)
        hist = mention_histogram(NewsStore(events))
        total_by_article = sum(k * c for k, c in hist.mentions_per_article.items())
        assert total_by_article == sum(hist.articles_per_firm.values())
