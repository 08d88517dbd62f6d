"""Unit tests for EmitSpec (Extensions 4-7 configuration object)."""
from datetime import timedelta

import pytest

from repro.core.emit import EmitSpec


class TestValidation:
    def test_default_is_continuous_table(self):
        assert EmitSpec().continuous and not EmitSpec().stream

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            EmitSpec(after_delay=timedelta(minutes=-1))

    def test_zero_delay_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            EmitSpec(after_delay=timedelta(0))

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EmitSpec(allowed_lateness=timedelta(seconds=-1))

    def test_frozen(self):
        with pytest.raises(Exception):
            EmitSpec(stream=True).stream = False


class TestContinuous:
    def test_stream_is_continuous(self):
        assert EmitSpec(stream=True).continuous

    def test_watermark_gate_is_not_continuous(self):
        assert not EmitSpec(after_watermark=True).continuous
        assert not EmitSpec(stream=True, after_watermark=True).continuous

    def test_delay_gate_is_not_continuous(self):
        assert not EmitSpec(after_delay=timedelta(minutes=6)).continuous
