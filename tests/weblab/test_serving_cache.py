"""The accelerated serving path: covering indexes, single-fetch navigation,
cached facades, and metering under concurrency."""

import threading

import pytest

from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry
from repro.weblab.arcformat import pack_crawl
from repro.weblab.datformat import pack_crawl_metadata
from repro.weblab.pagestore import PageStore
from repro.weblab.preload import PreloadSubsystem
from repro.weblab.retro import RetroBrowser
from repro.weblab.services import WebLab, WebLabServices
from repro.weblab.subsets import SubsetCriteria
from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig


def explain(db, sql, params):
    rows = db.query(f"EXPLAIN QUERY PLAN {sql}", params)
    return " | ".join(str(row["detail"]) for row in rows)


class TestCoveringIndexes:
    def test_page_pointer_query_is_index_only(self, built_weblab):
        weblab, _, _ = built_weblab
        plan = explain(
            weblab.database.db,
            "SELECT url, fetched_at, crawl_index, content_hash FROM pages "
            "WHERE url = ? AND fetched_at <= ? ORDER BY fetched_at DESC LIMIT 1",
            ("http://x/", 1.0),
        )
        assert "USING COVERING INDEX" in plan
        assert "SCAN pages" not in plan

    def test_outlink_query_is_index_only_and_sort_free(self, built_weblab):
        weblab, _, _ = built_weblab
        plan = explain(
            weblab.database.db,
            "SELECT dst_url FROM links WHERE crawl_index = ? AND src_url = ? "
            "ORDER BY id",
            (0, "http://x/"),
        )
        assert "USING COVERING INDEX" in plan
        assert "SCAN links" not in plan
        assert "TEMP B-TREE" not in plan  # ORDER BY rides the index

    def test_pointer_method_agrees_with_page_as_of(self, built_weblab):
        weblab, _, _ = built_weblab
        url = weblab.database.db.query_value("SELECT url FROM pages LIMIT 1")
        as_of = weblab.database.captures_of(url)[-1]
        full = weblab.database.page_as_of(url, as_of)
        pointer = weblab.database.page_pointer_as_of(url, as_of)
        assert pointer is not None
        assert pointer["fetched_at"] == full["fetched_at"]
        assert pointer["crawl_index"] == full["crawl_index"]
        assert pointer["content_hash"] == full["content_hash"]
        assert weblab.database.page_pointer_as_of(url, -1.0) is None

    def test_outlinks_method_preserves_load_order(self, built_weblab):
        weblab, _, _ = built_weblab
        row = weblab.database.db.query_one(
            "SELECT crawl_index, src_url FROM links LIMIT 1"
        )
        ordered = weblab.database.db.query(
            "SELECT dst_url FROM links WHERE crawl_index = ? AND src_url = ? "
            "ORDER BY rowid",
            (row["crawl_index"], row["src_url"]),
        )
        assert weblab.database.outlinks(row["crawl_index"], row["src_url"]) == [
            r["dst_url"] for r in ordered
        ]


class TestSingleFetchNavigation:
    def find_navigable(self, weblab):
        row = weblab.database.db.query_one(
            "SELECT l.crawl_index, l.src_url FROM links l "
            "JOIN pages p ON p.url = l.dst_url AND p.crawl_index = l.crawl_index "
            "LIMIT 1"
        )
        as_of = weblab.database.db.query_value(
            "SELECT crawl_time FROM crawls WHERE crawl_index = ?",
            (row["crawl_index"],),
        )
        return row["src_url"], as_of + 1.0

    def test_navigate_fetches_content_once(self, built_weblab, monkeypatch):
        weblab, _, _ = built_weblab
        src_url, as_of = self.find_navigable(weblab)
        fetches = []
        real_get = PageStore.get
        monkeypatch.setattr(
            PageStore, "get", lambda self, digest: fetches.append(digest) or real_get(self, digest)
        )
        retro = RetroBrowser(weblab.database, weblab.pagestore)
        page = retro.navigate(src_url, as_of, 0)
        assert len(fetches) == 1  # destination only; the source is never fetched
        assert page.url == retro.outlinks(src_url, as_of)[0]

    def test_outlinks_endpoint_fetches_nothing(self, built_weblab, monkeypatch):
        weblab, _, _ = built_weblab
        src_url, as_of = self.find_navigable(weblab)
        monkeypatch.setattr(
            PageStore,
            "get",
            lambda self, digest: pytest.fail("outlinks lookup touched content"),
        )
        retro = RetroBrowser(weblab.database, weblab.pagestore)
        assert len(retro.outlinks(src_url, as_of)) >= 1


class TestCachedServing:
    def test_cached_browse_equals_uncached(self, built_weblab):
        weblab, _, _ = built_weblab
        cold = WebLabServices(weblab, telemetry=Telemetry())
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=256)
        )
        urls = [
            row["url"]
            for row in weblab.database.db.query(
                "SELECT DISTINCT url FROM pages LIMIT 10"
            )
        ]
        for url in urls:
            as_of = weblab.database.captures_of(url)[-1]
            for _ in range(2):
                a = cold.browse(url, as_of)
                b = warm.browse(url, as_of)
                assert (a.content, a.outlinks, a.fetched_at) == (
                    b.content,
                    b.outlinks,
                    b.fetched_at,
                )
        assert warm.cache.stats.hits > 0

    def test_cached_navigate_equals_uncached(self, built_weblab):
        weblab, _, _ = built_weblab
        src_url, as_of = TestSingleFetchNavigation().find_navigable(weblab)
        cold = WebLabServices(weblab, telemetry=Telemetry())
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=256)
        )
        for _ in range(3):
            a = cold.navigate(src_url, as_of, 0)
            b = warm.navigate(src_url, as_of, 0)
            assert a.url == b.url and a.content == b.content

    def test_negative_browse_is_cached(self, built_weblab):
        from repro.core.errors import WebLabError

        weblab, _, _ = built_weblab
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=16)
        )
        for _ in range(3):
            with pytest.raises(WebLabError, match="no capture"):
                warm.browse("http://never.example/", 1e12)
        assert warm.cache.stats.negative_hits == 2

    def test_cached_subset_extraction(self, built_weblab):
        weblab, _, _ = built_weblab
        criteria = SubsetCriteria(tlds=("edu",))
        cold = WebLabServices(weblab, telemetry=Telemetry())
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=16)
        )
        expected = cold.extract_subset("edu_slice", criteria)
        assert warm.extract_subset("edu_slice", criteria) == expected
        assert warm.extract_subset("edu_slice", criteria) == expected
        assert warm.cache.stats.hits == 1
        # Different criteria → different token → fresh extraction.
        other = SubsetCriteria(tlds=("com",))
        assert f"subset:edu_slice:{criteria.cache_token()}" in warm.cache
        assert criteria.cache_token() != other.cache_token()


class TestIngestInvalidation:
    """Regression: a crawl preloaded after reads were cached used to stay
    invisible behind the cached ``asof:``/``links:``/``subset:`` entries."""

    @staticmethod
    def ingest(lab, crawl, incoming):
        prefix = f"crawl{crawl.crawl_index:02d}"
        arcs = pack_crawl(crawl.pages, incoming, prefix)
        dats = pack_crawl_metadata(crawl.pages, arcs, incoming, prefix)
        lab.database.register_crawl(crawl.crawl_index, crawl.crawl_time)
        PreloadSubsystem(lab.database, lab.pagestore).run(
            [(path, crawl.crawl_index) for path in arcs],
            [(path, crawl.crawl_index) for path in dats],
        )

    def test_reads_after_an_ingest_see_the_new_crawl(self, tmp_path):
        config = SyntheticWebConfig(seed=5, initial_pages=40, new_pages_per_crawl=10)
        crawls = SyntheticWeb(config).generate_crawls(3)
        with WebLab(tmp_path / "lab") as lab:
            for crawl in crawls[:2]:
                self.ingest(lab, crawl, tmp_path / "incoming")
            cached = WebLabServices(
                lab, telemetry=Telemetry(), cache=ReadCache(capacity=1024)
            )
            plain = WebLabServices(lab, telemetry=Telemetry())
            urls = lab.database.db.query("SELECT DISTINCT url FROM pages ORDER BY url")
            urls = [row["url"] for row in urls]
            latest = float("inf")
            for url in urls:
                cached.browse(url, latest)
            everything = SubsetCriteria()
            before = cached.extract_subset("all_pages", everything)

            self.ingest(lab, crawls[2], tmp_path / "incoming")
            fresh = [plain.browse(url, latest) for url in urls]
            assert any(page.crawl_index == 2 for page in fresh)
            assert [cached.browse(url, latest) for url in urls] == fresh
            after = cached.extract_subset("all_pages", everything)
            assert after == lab.database.page_count() > before
            # Content-addressed blobs cannot stale and stay cached.
            assert any(key.startswith("blob:") for key in cached.cache.keys())


class TestConcurrentMetering:
    def test_counters_and_events_agree_across_threads(self, built_weblab):
        weblab, _, _ = built_weblab
        bus = Telemetry()
        services = WebLabServices(
            weblab, telemetry=bus, cache=ReadCache(capacity=256)
        )
        urls = [
            row["url"]
            for row in weblab.database.db.query(
                "SELECT DISTINCT url FROM pages LIMIT 8"
            )
        ]
        per_thread = 12
        errors = []

        def reader(worker: int):
            try:
                for i in range(per_thread):
                    url = urls[(worker + i) % len(urls)]
                    as_of = weblab.database.captures_of(url)[-1]
                    if i % 3 == 2:
                        services.capture_history(url)
                    else:
                        services.browse(url, as_of)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []

        total_calls = 6 * per_thread
        stats = services.service_stats
        assert stats["browse"] + stats["capture_history"] == total_calls
        assert stats["capture_history"] == 6 * (per_thread // 3)
        events = [e for e in bus.events() if e.kind == "service.call"]
        assert len(events) == total_calls
        by_method = {}
        for event in events:
            by_method[event.name] = by_method.get(event.name, 0) + 1
        assert by_method == stats
