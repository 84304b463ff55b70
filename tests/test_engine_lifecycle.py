"""Tests for engine shutdown hygiene: idempotent close, cache persistence."""

import logging

import pytest

from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import S2, paper_published
from repro.engine import PrivacyEngine, shared_engine, shutdown_shared_engines
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig

KNOWLEDGE = [
    ConditionalProbability(
        given={"gender": "male"}, sa_value=S2, probability=0.3
    )
]


class TestIdempotentClose:
    def test_close_twice_is_safe(self):
        engine = PrivacyEngine()
        engine.close()
        engine.close()
        assert engine.closed

    def test_context_manager_then_close(self):
        with PrivacyEngine() as engine:
            PrivacyMaxEnt(
                paper_published(), knowledge=KNOWLEDGE, engine=engine
            ).solve()
        engine.close()  # second close after __exit__ must be harmless
        assert engine.closed


class TestNoWorkerLeaks:
    def test_engine_close_tears_down_its_pool(self, tmp_path):
        """What close() owns is the cache snapshot: saved exactly once,
        however many times the engine is closed."""
        path = tmp_path / "c.pkl"
        engine = PrivacyEngine(cache_path=path)
        PrivacyMaxEnt(
            paper_published(), knowledge=KNOWLEDGE, engine=engine
        ).solve()
        saves = []
        real_save = engine.save_cache

        def counting_save(path=None):
            saves.append(path)
            return real_save(path)

        engine.save_cache = counting_save
        engine.close()
        engine.close()
        assert engine.closed
        assert len(saves) == 1
        assert PrivacyEngine(cache_path=path).cache.items()


class TestCloseResilience:
    def test_failed_cache_save_still_tears_down_the_pool(self, tmp_path):
        """A failing save (full disk) re-raises yet leaves the engine
        closed, and a second close does not retry the save."""
        engine = PrivacyEngine(cache_path=tmp_path / "c.pkl")
        engine.cache.put("k", object())  # non-empty so close() tries saving
        saves = []

        def broken_save(path=None):
            saves.append(path)
            raise OSError("disk full")

        engine.save_cache = broken_save
        with pytest.raises(OSError, match="disk full"):
            engine.close()
        assert engine.closed
        engine.close()
        assert len(saves) == 1

    def test_shutdown_survives_a_failing_engine(self):
        # The failure is reported through the structured `repro.engine`
        # logger (not bare stderr), so capture at the logger itself —
        # immune to whether `configure_logging` disabled propagation.
        messages: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda record: messages.append(record.getMessage())
        log = logging.getLogger("repro.engine")
        log.addHandler(handler)
        try:
            shutdown_shared_engines()
            bad = shared_engine(MaxEntConfig(cache_size=7))
            good = shared_engine(MaxEntConfig(cache_size=9))

            def explode():
                raise RuntimeError("boom")

            bad.close = explode
            assert shutdown_shared_engines() == 2
            assert good.closed
            assert any("close failed" in message for message in messages)
        finally:
            log.removeHandler(handler)


class TestSharedEngineShutdown:
    def test_shutdown_closes_and_forgets(self):
        shutdown_shared_engines()
        first = shared_engine(MaxEntConfig())
        again = shared_engine(MaxEntConfig())
        assert again is first
        closed = shutdown_shared_engines()
        assert closed >= 1
        assert first.closed
        fresh = shared_engine(MaxEntConfig())
        assert fresh is not first
        shutdown_shared_engines()

    def test_shutdown_with_nothing_registered(self):
        shutdown_shared_engines()
        assert shutdown_shared_engines() == 0
