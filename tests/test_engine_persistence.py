"""Tests for solve-cache persistence (warm restarts via cache_path)."""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import S2, paper_published
from repro.engine import PrivacyEngine
from repro.errors import ReproError
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig

KNOWLEDGE = [
    ConditionalProbability(given={"gender": "male"}, sa_value=S2, probability=0.3)
]


def solve_once(engine):
    quantifier = PrivacyMaxEnt(
        paper_published(), knowledge=KNOWLEDGE, engine=engine
    )
    return quantifier.solve(force=True)


class TestSaveLoad:
    def test_round_trip_warms_a_new_engine(self, tmp_path):
        path = tmp_path / "cache.pkl"
        with PrivacyEngine(cache_path=path) as cold:
            first = solve_once(cold)
            assert first.stats.cache_hits == 0
            saved = cold.save_cache()
            assert saved == len(cold.cache) > 0
        assert path.exists()

        with PrivacyEngine(cache_path=path) as warm:
            assert len(warm.cache) == saved
            second = solve_once(warm)
            assert second.stats.cache_hits > 0
            np.testing.assert_array_equal(second.p, first.p)

    def test_close_persists_automatically(self, tmp_path):
        path = tmp_path / "auto.pkl"
        engine = PrivacyEngine(cache_path=path)
        solve_once(engine)
        assert not path.exists()
        engine.close()
        assert path.exists()
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["entries"]

    def test_from_config_uses_cache_path(self, tmp_path):
        path = tmp_path / "config.pkl"
        config = MaxEntConfig(cache_path=str(path))
        engine = PrivacyEngine.from_config(config)
        assert engine.cache_path == str(path)
        solve_once(engine)
        engine.close()
        warm = PrivacyEngine.from_config(config)
        assert len(warm.cache) > 0
        warm.close()

    def test_warm_starts_persist_too(self, tmp_path):
        path = tmp_path / "warm.pkl"
        with PrivacyEngine(cache_path=path) as engine:
            solve_once(engine)
            n_warm = len(engine.warm_starts)
        if n_warm:
            with PrivacyEngine(cache_path=path) as restored:
                assert len(restored.warm_starts) == n_warm

    def test_save_without_path_raises(self):
        engine = PrivacyEngine()
        with pytest.raises(ReproError, match="no cache path"):
            engine.save_cache()
        engine.close()


class TestResilience:
    def test_missing_file_is_a_cold_start(self, tmp_path):
        engine = PrivacyEngine(cache_path=tmp_path / "absent.pkl")
        assert len(engine.cache) == 0
        engine.close()

    def test_corrupt_file_is_a_cold_start(self, tmp_path):
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"this is not a pickle")
        engine = PrivacyEngine(cache_path=path)
        assert len(engine.cache) == 0
        solve_once(engine)  # still fully functional
        engine.close()
        # ... and close() rewrote a healthy snapshot over the corruption.
        assert PrivacyEngine(cache_path=path).cache

    def test_wrong_format_tag_is_ignored(self, tmp_path):
        path = tmp_path / "stale.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"format": "something-else", "entries": [("k", 1, 2)]}, handle)
        engine = PrivacyEngine(cache_path=path)
        assert len(engine.cache) == 0
        engine.close()

    @pytest.mark.parametrize("version", [1, 3, 4])
    def test_older_snapshot_loads_cold(self, tmp_path, version):
        """A snapshot from before the solver switch was deleted keys its
        entries with the solver name, so none could ever hit: it loads
        as a cold start instead of being migrated or rejected."""
        path = tmp_path / f"v{version}.pkl"
        with PrivacyEngine(cache_path=path) as old:
            first = solve_once(old)
            old.save_cache()
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["format"] == "privacy-maxent-solve-cache/5"
        assert payload["entries"]
        payload["format"] = f"privacy-maxent-solve-cache/{version}"
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        with PrivacyEngine(cache_path=path) as cold:
            assert cold.load_cache() == 0
            assert len(cold.cache) == 0
            assert len(cold.warm_starts) == 0
            second = solve_once(cold)
            assert second.stats.cache_hits == 0
            np.testing.assert_array_equal(second.p, first.p)

    def test_unknown_cache_version_is_rejected(self, tmp_path):
        """A recognized-prefix, unknown-version snapshot must fail loudly
        instead of silently serving entries under a contract this build
        cannot vouch for."""
        path = tmp_path / "future.pkl"
        with PrivacyEngine(cache_path=path) as old:
            solve_once(old)
            old.save_cache()
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["format"] = "privacy-maxent-solve-cache/99"
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        with pytest.raises(ReproError, match="solve-result contract"):
            PrivacyEngine(cache_path=path)

    def test_disabled_cache_skips_persistence(self, tmp_path):
        path = tmp_path / "disabled.pkl"
        engine = PrivacyEngine(cache_size=0, cache_path=path)
        solve_once(engine)
        engine.close()
        assert not path.exists()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "atomic.pkl"
        with PrivacyEngine(cache_path=path) as engine:
            solve_once(engine)
            engine.save_cache()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "atomic.pkl"]
        assert leftovers == []


class TestAtexitPersistence:
    def test_shared_engine_saves_on_normal_exit(self, tmp_path):
        """A process using shared_engine persists its cache at exit."""
        path = tmp_path / "exit.pkl"
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        script = f"""
import sys
sys.path.insert(0, {src_dir!r})
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import paper_published, S2
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig

config = MaxEntConfig(cache_path={str(path)!r})
knowledge = [ConditionalProbability(given={{"gender": "male"}}, sa_value=S2, probability=0.3)]
PrivacyMaxEnt(paper_published(), knowledge=knowledge, config=config).solve()
"""
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert path.exists()
        with PrivacyEngine(cache_path=path) as warm:
            assert len(warm.cache) > 0
