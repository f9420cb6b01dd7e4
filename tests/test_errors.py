"""The shared exception hierarchy: shape, compat, and live raise sites.

Every deliberate error descends from ``ReproError``; the durability
branch additionally subclasses ``RuntimeError`` so call sites written
against the historical bare ``RuntimeError`` keep catching it.
"""

import pytest

from repro.errors import (
    DurabilityError,
    RecoveryError,
    ReproError,
    WalCorruptionError,
)


class TestHierarchy:
    def test_everything_descends_from_repro_error(self):
        for cls in (DurabilityError, WalCorruptionError, RecoveryError):
            assert issubclass(cls, ReproError)

    def test_durability_branch(self):
        assert issubclass(WalCorruptionError, DurabilityError)
        assert issubclass(RecoveryError, DurabilityError)

    def test_runtime_error_compat(self):
        """Legacy ``except RuntimeError`` / ``pytest.raises(RuntimeError)``
        call sites must keep working for the durability branch."""
        for cls in (DurabilityError, WalCorruptionError, RecoveryError):
            assert issubclass(cls, RuntimeError)
        assert not issubclass(ReproError, RuntimeError)


class TestLiveRaiseSites:
    def test_wal_corruption_is_catchable_as_durability(self, tmp_path):
        from repro.wal import WriteAheadLog
        path = tmp_path / "00000001.wal"
        path.write_bytes(b"garbage that is not even a frame header")
        (tmp_path / "00000002.wal").write_bytes(b"")
        with pytest.raises(DurabilityError):
            WriteAheadLog(tmp_path)
