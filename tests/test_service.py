"""Tests for the service-layer building blocks: jobs, cache, metrics."""

from __future__ import annotations

import errno
import os
import pathlib

import numpy as np
import pytest

from repro.errors import CacheError, ConfigurationError
from repro.service import (
    DesignJob,
    DesignService,
    MetricsRegistry,
    ResultCache,
    percentile,
)
from repro.sim.systems import SystemParams


class TestDesignJob:
    def test_fingerprint_is_stable(self):
        a = DesignJob("klt", scale=2, seed=7, simulate=False)
        b = DesignJob("klt", scale=2, seed=7, simulate=False)
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 64  # sha256 hex

    def test_fingerprint_sees_every_input(self):
        base = DesignJob("klt", simulate=False)
        variants = [
            DesignJob("jpeg", simulate=False),
            DesignJob("klt", scale=2, simulate=False),
            DesignJob("klt", seed=1, simulate=False),
            DesignJob("klt", simulate=True),
            DesignJob("klt", simulate=False,
                      params=SystemParams(bus_width_bytes=4)),
            DesignJob("klt", simulate=False,
                      design={"enable_sharing": False}),
        ]
        prints = {j.fingerprint() for j in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_design_mapping_normalized(self):
        a = DesignJob("klt", design={"enable_noc": False, "enable_sharing": False})
        b = DesignJob("klt", design={"enable_sharing": False, "enable_noc": False})
        assert a == b
        assert a.design_overrides == {
            "enable_noc": False, "enable_sharing": False,
        }

    def test_dict_roundtrip(self):
        job = DesignJob(
            "fluid", scale=3, seed=11,
            params=SystemParams(noc_qos=True, noc_transport="wormhole"),
            simulate=True, design={"enable_pipelining": False},
        )
        clone = DesignJob.from_dict(job.to_dict())
        assert clone == job
        assert clone.fingerprint() == job.fingerprint()

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignJob("doom")

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignJob("klt", scale=0)

    @pytest.mark.parametrize(
        "kwargs", [{"seed": -1}, {"seed": 1.5}, {"scale": True}, {"scale": 2.0}]
    )
    def test_bad_seed_or_scale_rejected_before_running(self, kwargs):
        with pytest.raises(ConfigurationError):
            DesignJob("fluid", **kwargs)

    def test_numpy_integers_normalized(self):
        job = DesignJob("klt", scale=np.int64(2), seed=np.int32(7))
        assert type(job.scale) is int and type(job.seed) is int
        assert job.fingerprint() == DesignJob("klt", scale=2, seed=7).fingerprint()

    def test_unknown_toggle_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignJob("klt", design={"warp_drive": True})

    def test_calibrated_fields_not_overridable(self):
        with pytest.raises(ConfigurationError):
            DesignJob("klt", design={"theta_s_per_byte": 1e-9})


class TestResultCacheMemory:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("fp1") is None
        cache.put("fp1", {"speedup_app": 1.5})
        assert cache.get("fp1") == {"speedup_app": 1.5}
        assert cache.stats.misses == 1
        assert cache.stats.hits_memory == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a → b is now least-recent
        cache.put("c", {"v": 3})
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}

    def test_bad_capacity_rejected(self):
        with pytest.raises(CacheError):
            ResultCache(capacity=0)


class TestResultCacheDisk:
    def test_survives_new_instance(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put("fp", {"speedup_app": 2.25})
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("fp") == {"speedup_app": 2.25}
        assert fresh.stats.hits_disk == 1

    def test_float_roundtrip_is_exact(self, tmp_path):
        value = {"speedup_kernels": 3.0000000000000004, "luts": 12345}
        ResultCache(cache_dir=tmp_path).put("fp", value)
        assert ResultCache(cache_dir=tmp_path).get("fp") == value

    def test_format_version_bump_invalidates(self, tmp_path, monkeypatch):
        ResultCache(cache_dir=tmp_path).put("fp", {"v": 1})
        monkeypatch.setattr("repro.io.FORMAT_VERSION", 99)
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("fp") is None
        assert fresh.stats.invalidations == 1
        assert fresh.stats.misses == 1
        assert not (tmp_path / "fp.json").exists()

    def test_corrupt_entry_invalidated(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        (tmp_path / "fp.json").write_text("{not json")
        assert cache.get("fp") is None
        assert cache.stats.invalidations == 1
        assert not (tmp_path / "fp.json").exists()

    def test_fingerprint_mismatch_invalidated(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("real", {"v": 1})
        (tmp_path / "real.json").rename(tmp_path / "other.json")
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("other") is None
        assert fresh.stats.invalidations == 1


def _fail_writes_under(monkeypatch, directory, code):
    """Make every ``Path.write_text`` into ``directory`` fail with ``code``."""
    real = pathlib.Path.write_text

    def write_text(self, *args, **kwargs):
        if self.parent == directory:
            raise OSError(code, os.strerror(code), str(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", write_text)


def _fail_replace(monkeypatch, directory, code):
    """Make every ``os.replace`` fail with ``code``."""

    def replace(src, dst):
        raise OSError(code, os.strerror(code), str(dst))

    monkeypatch.setattr(os, "replace", replace)


#: A result summary shaped like :func:`repro.flow.result_summary`'s.
SUMMARY = {
    "solution": "NoC, SM, P",
    "baseline_kernels_ms": 12.345678901234567,
    "proposed_kernels_ms": 3.0000000000000004,
    "speedup_app": 1.8712,
    "proposed_luts": 15031,
    "sim_speedup_app": 1.7999999999999998,
}


class TestResultCacheWriteFailures:
    @pytest.mark.parametrize(
        "inject, code",
        [(_fail_writes_under, errno.ENOSPC), (_fail_replace, errno.EIO)],
        ids=["ENOSPC-at-write", "EIO-at-rename"],
    )
    def test_failed_disk_write_is_counted_not_raised(
        self, tmp_path, monkeypatch, inject, code
    ):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("old", {"v": 1})
        inject(monkeypatch, tmp_path, code)
        cache.put("fp", SUMMARY)
        cache.put("old", {"v": 2})
        monkeypatch.undo()
        assert cache.stats.write_errors == 2
        assert cache.stats.as_dict()["write_errors"] == 2
        assert cache.stats.stores == 3
        assert cache.get("fp") == SUMMARY  # served from memory
        # no temporary file is left, and the old entry is still whole
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("old") == {"v": 1}
        assert fresh.get("fp") is None
        assert fresh.stats.invalidations == 0

    def test_entry_cut_at_every_byte_offset_never_reads_wrong(
        self, tmp_path
    ):
        ResultCache(cache_dir=tmp_path).put("fp", SUMMARY)
        path = tmp_path / "fp.json"
        data = path.read_bytes()
        whole = data.rstrip()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            cache = ResultCache(cache_dir=tmp_path)
            got = cache.get("fp")
            if data[:cut] == whole:
                # only the trailing newline is gone: the entry is intact
                assert got == SUMMARY, cut
                assert cache.stats.invalidations == 0, cut
            else:
                assert got is None, cut
                assert cache.stats.invalidations == 1, cut
                assert not path.exists(), cut

    def test_peek_reads_disk_without_side_effects(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put("fp", SUMMARY)
        path = tmp_path / "fp.json"
        data = path.read_bytes()
        cache = ResultCache(cache_dir=tmp_path)
        assert cache.peek("fp") == SUMMARY
        assert cache.peek("fp", disk=False) is None
        path.rename(tmp_path / "other.json")  # a foreign fingerprint
        assert cache.peek("other") is None
        (tmp_path / "other.json").rename(path)
        path.write_bytes(data[: len(data) // 2])
        assert cache.peek("fp") is None
        assert cache.peek("missing") is None
        assert path.exists()  # peek never invalidates
        assert cache.stats.as_dict() == ResultCache().stats.as_dict()
        assert len(cache) == 0

    def test_batch_survives_failed_cache_writes(self, tmp_path, monkeypatch):
        from repro.server import DesignClient, ServerConfig, start_in_thread

        calls = []

        def runner(job):
            calls.append(job.fingerprint())
            return {"app": job.app, "seed": job.seed}

        a = DesignJob("klt", simulate=False)
        b = DesignJob("klt", seed=7, simulate=False)
        c = DesignJob("jpeg", simulate=False)
        service = DesignService(
            cache=ResultCache(cache_dir=tmp_path), runner=runner
        )
        try:
            _fail_writes_under(monkeypatch, tmp_path, errno.ENOSPC)
            results = service.submit_many([a, b, a, c])
            monkeypatch.undo()
            assert [r.summary for r in results] == [
                {"app": "klt", "seed": a.seed},
                {"app": "klt", "seed": 7},
                {"app": "klt", "seed": a.seed},
                {"app": "jpeg", "seed": c.seed},
            ]
            assert results[2].coalesced
            assert len(calls) == 3
            assert service._inflight == {}
            assert service.stats()["cache"]["write_errors"] == 3
            assert list(tmp_path.iterdir()) == []
            # the answers stay cached in memory
            assert service.submit(b).cached
            with start_in_thread(
                ServerConfig(port=0), service=service
            ) as handle:
                doc = DesignClient(handle.url).debug()
            assert doc["debug"]["cache"]["write_errors"] == 3
        finally:
            service.close()


class TestArtifactWriteFailures:
    @pytest.mark.parametrize("directory", ["profile_dir", "lint_dir"])
    def test_failed_artifact_write_keeps_the_batch(self, tmp_path, directory):
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        klt, jpeg = DesignJob("klt"), DesignJob("jpeg")
        service = DesignService(jobs=1, **{directory: blocker / "out"})
        try:
            results = service.submit_many([klt, jpeg, klt])
            assert [r.job.app for r in results] == ["klt", "jpeg", "klt"]
            assert results[2].coalesced
            assert results[2].summary == results[0].summary
            assert service.metrics.counter("jobs_completed") == 2
            for result in results[:2]:
                assert service.cache.get(result.fingerprint) == result.summary
            assert service.metrics.counter("artifact_write_errors") == 2
            assert "artifact_write_errors" in service.render_stats()
            assert service._inflight == {}
        finally:
            service.close()


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 95) == 7.0

    def test_counters_and_timers(self):
        m = MetricsRegistry()
        m.incr("jobs_submitted", 3)
        m.incr("jobs_submitted")
        m.observe("job_latency", 0.1)
        m.observe("job_latency", 0.3)
        snap = m.snapshot()
        assert snap["counters"]["jobs_submitted"] == 4
        stats = snap["timers"]["job_latency"]
        assert stats["count"] == 2
        assert stats["mean_s"] == pytest.approx(0.2)

    def test_render_includes_extras(self):
        m = MetricsRegistry()
        m.incr("jobs_completed", 2)
        text = m.render((("cache_hit_ratio", 1.0),))
        assert "jobs_completed" in text
        assert "cache_hit_ratio" in text
        assert "1.0000" in text


class TestCacheDeterminism:
    """Same seed + SystemParams twice must be bit-for-bit reproducible."""

    def test_repeat_submission_is_byte_identical_and_cached(self):
        from repro.io import canonical_json
        from repro.service import DesignService

        params = SystemParams(bus_width_bytes=4, dma_setup_cycles=60)
        service = DesignService()
        make = lambda: DesignJob("klt", scale=2, seed=11, simulate=True,
                                 params=params)

        first = service.submit(make())
        second = service.submit(make())

        assert not first.cached
        assert second.cached
        assert canonical_json(first.summary).encode() == \
            canonical_json(second.summary).encode()
        cache = service.stats()["cache"]
        assert cache["hits_memory"] + cache["hits_disk"] == 1
        assert cache["misses"] >= 1

    def test_two_services_same_disk_cache_agree(self, tmp_path):
        from repro.io import canonical_json
        from repro.service import DesignService

        job = DesignJob("canny", seed=3, simulate=True,
                        params=SystemParams(noc_link_width_bytes=2))
        summary_a = DesignService(cache_dir=tmp_path).submit(job).summary
        result_b = DesignService(cache_dir=tmp_path).submit(job)
        assert result_b.cached
        assert canonical_json(summary_a) == canonical_json(result_b.summary)
