from __future__ import annotations

import datetime as dt

import pytest

from conftest import simple_event
from newsprop.sentiment import NewsStore, load_news, mention_histogram


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
