"""Unit tests for CompressionConfig validation and serialization."""

from __future__ import annotations

import pytest

from repro import CompressionConfig
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_paper_defaults(self):
        cfg = CompressionConfig()
        assert cfg.n_bins == 128  # the paper's largest swept n
        assert cfg.quantizer == "proposed"
        assert cfg.spike_partitions == 64  # paper fixes d = 64
        assert cfg.backend == "zlib"

    def test_frozen(self):
        cfg = CompressionConfig()
        with pytest.raises(AttributeError):
            cfg.n_bins = 4


class TestValidation:
    @pytest.mark.parametrize("n", [1, 2, 128, 256])
    def test_valid_n_bins(self, n):
        assert CompressionConfig(n_bins=n).n_bins == n

    @pytest.mark.parametrize("n", [0, -1, 257, 1000])
    def test_invalid_n_bins_range(self, n):
        with pytest.raises(ConfigurationError):
            CompressionConfig(n_bins=n)

    @pytest.mark.parametrize("n", [1.5, "128", None, True])
    def test_invalid_n_bins_type(self, n):
        with pytest.raises(ConfigurationError):
            CompressionConfig(n_bins=n)

    def test_invalid_quantizer(self):
        with pytest.raises(ConfigurationError, match="quantizer"):
            CompressionConfig(quantizer="fancy")

    @pytest.mark.parametrize("d", [0, -5, 2.5, True])
    def test_invalid_spike_partitions(self, d):
        with pytest.raises(ConfigurationError):
            CompressionConfig(spike_partitions=d)

    @pytest.mark.parametrize("levels", [1, 5, "max"])
    def test_valid_levels(self, levels):
        assert CompressionConfig(levels=levels).levels == levels

    @pytest.mark.parametrize("levels", [0, -2, "deep", 1.5, True])
    def test_invalid_levels(self, levels):
        with pytest.raises(ConfigurationError):
            CompressionConfig(levels=levels)

    @pytest.mark.parametrize("backend", ["", None, 42])
    def test_invalid_backend(self, backend):
        with pytest.raises(ConfigurationError):
            CompressionConfig(backend=backend)

    @pytest.mark.parametrize("level", [-1, 10, "6", True])
    def test_invalid_backend_level(self, level):
        with pytest.raises(ConfigurationError):
            CompressionConfig(backend_level=level)

    @pytest.mark.parametrize("threads", [None, 1, 4, 64])
    def test_valid_backend_threads(self, threads):
        assert CompressionConfig(backend_threads=threads).backend_threads == threads

    @pytest.mark.parametrize("threads", [0, -1, 2.0, "4", True])
    def test_invalid_backend_threads(self, threads):
        with pytest.raises(ConfigurationError, match="backend_threads"):
            CompressionConfig(backend_threads=threads)

    @pytest.mark.parametrize("block_bytes", [1, 4096, 1 << 20])
    def test_valid_backend_block_bytes(self, block_bytes):
        cfg = CompressionConfig(backend_block_bytes=block_bytes)
        assert cfg.backend_block_bytes == block_bytes

    @pytest.mark.parametrize("block_bytes", [0, -1, None, 1.5, True])
    def test_invalid_backend_block_bytes(self, block_bytes):
        with pytest.raises(ConfigurationError, match="backend_block_bytes"):
            CompressionConfig(backend_block_bytes=block_bytes)


class TestSerialization:
    def test_roundtrip(self):
        cfg = CompressionConfig(n_bins=32, quantizer="simple", levels="max")
        assert CompressionConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            CompressionConfig.from_dict({"n_bins": 8, "bogus": 1})

    def test_from_dict_validates(self):
        with pytest.raises(ConfigurationError):
            CompressionConfig.from_dict({"n_bins": 0})

    def test_default_dict_omits_backend_parallelism_knobs(self):
        """Default configs must serialize exactly as they did before the
        threaded backends existed, keeping v1 container headers (and the
        golden-blob format test) byte-stable."""
        data = CompressionConfig().to_dict()
        assert "backend_threads" not in data
        assert "backend_block_bytes" not in data

    def test_backend_threads_never_serialized(self):
        """Thread count is an execution knob, not a format parameter:
        serializing it would make blobs differ by thread count."""
        cfg = CompressionConfig(backend="gzip-mt", backend_threads=4)
        data = cfg.to_dict()
        assert "backend_threads" not in data
        assert CompressionConfig.from_dict(data) == cfg.replace(backend_threads=None)

    def test_non_default_block_bytes_survives_roundtrip(self):
        cfg = CompressionConfig(backend="zlib-mt", backend_block_bytes=1 << 16)
        data = cfg.to_dict()
        assert data["backend_block_bytes"] == 1 << 16
        assert CompressionConfig.from_dict(data) == cfg


class TestReplace:
    def test_returns_new_validated(self):
        cfg = CompressionConfig()
        other = cfg.replace(n_bins=8)
        assert other.n_bins == 8 and cfg.n_bins == 128
        with pytest.raises(ConfigurationError):
            cfg.replace(n_bins=0)


def _numeric_and_bool_fields():
    import dataclasses

    from repro.ckpt.resilience import RetryPolicy
    from repro.config import ResilienceConfig, ServiceConfig, TemporalConfig

    nan, inf = float("nan"), float("inf")
    wrong = {
        "int": (nan, "1", True, inf, -inf),
        "float": (nan, "1", True, inf, -inf),
        "bool": (nan, "no", 1),
    }
    for cls in (
        CompressionConfig, TemporalConfig, ResilienceConfig, ServiceConfig, RetryPolicy,
    ):
        for f in dataclasses.fields(cls):
            for bad in wrong.get(f.type.split(" | ")[0], ()):
                yield pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}={bad!r}")


class TestEveryKnobChecksItsType:
    """One validator for all five classes: an int knob refuses a bool, a
    float knob refuses NaN and infinities (an infinite "guaranteed" error
    bound guarantees nothing), a bool knob refuses truthy strings."""

    @pytest.mark.parametrize("cls,name,bad", _numeric_and_bool_fields())
    def test_wrong_value_names_the_field(self, cls, name, bad):
        with pytest.raises(ConfigurationError, match=name):
            cls(**{name: bad})

    def test_every_class_is_covered(self):
        covered = {p.values[0].__name__ for p in _numeric_and_bool_fields()}
        assert len(covered) == 5


class TestEverySettingHasAFlag:
    """A setting that no flag sets and no caller passes is a constant, not
    a field: every field of every config dataclass declares ``help``, which
    gives it its command-line option."""

    @staticmethod
    def _config_classes():
        import dataclasses

        from repro import config

        return [
            cls for cls in vars(config).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == config.__name__
        ]

    def test_the_config_classes(self):
        assert sorted(cls.__name__ for cls in self._config_classes()) == [
            "CompressionConfig", "ResilienceConfig", "ServiceConfig", "TemporalConfig",
        ]

    def test_every_field_declares_help(self):
        import dataclasses

        unflagged = [
            f"{cls.__name__}.{f.name}"
            for cls in self._config_classes()
            for f in dataclasses.fields(cls)
            if "help" not in f.metadata
        ]
        assert unflagged == []
