"""Unit tests for watermark tracks and generators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import WatermarkError
from repro.core.times import MAX_TIMESTAMP, MIN_TIMESTAMP
from repro.core.watermark import (
    BoundedOutOfOrderness,
    PunctuatedWatermarks,
    WatermarkTrack,
    merge_watermarks,
)


class TestWatermarkTrack:
    def test_initially_min(self):
        track = WatermarkTrack()
        assert track.current == MIN_TIMESTAMP
        assert track.value_at(100) == MIN_TIMESTAMP

    def test_step_function(self):
        track = WatermarkTrack()
        track.advance(10, 5)
        track.advance(20, 8)
        assert track.value_at(9) == MIN_TIMESTAMP
        assert track.value_at(10) == 5
        assert track.value_at(19) == 5
        assert track.value_at(20) == 8
        assert track.current == 8

    def test_monotonic_in_ptime(self):
        track = WatermarkTrack()
        track.advance(10, 5)
        with pytest.raises(WatermarkError):
            track.advance(9, 6)

    def test_monotonic_in_value(self):
        track = WatermarkTrack()
        track.advance(10, 5)
        with pytest.raises(WatermarkError):
            track.advance(11, 4)

    def test_same_value_dedup(self):
        track = WatermarkTrack()
        track.advance(10, 5)
        track.advance(11, 5)
        assert len(track.as_pairs()) == 1

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=20))
    def test_value_at_matches_linear_scan(self, raw_pairs):
        # build a valid monotone track from arbitrary raw input
        track = WatermarkTrack()
        applied = []
        last_pt, last_v = -1, MIN_TIMESTAMP
        for pt, v in raw_pairs:
            pt = max(pt, last_pt)
            v = max(v, last_v)
            track.advance(pt, v)
            applied.append((pt, v))
            last_pt, last_v = pt, v
        for probe in range(0, 101, 7):
            expected = MIN_TIMESTAMP
            for pt, v in applied:
                if pt <= probe:
                    expected = v
            assert track.value_at(probe) == expected


class TestGenerators:
    def test_bounded_out_of_orderness(self):
        gen = BoundedOutOfOrderness(max_delay=10)
        assert gen.current == MIN_TIMESTAMP
        assert gen.observe(100) == 90
        assert gen.observe(50) == 90  # regression in input does not regress wm
        assert gen.observe(200) == 190

    def test_bounded_rejects_negative_delay(self):
        with pytest.raises(WatermarkError):
            BoundedOutOfOrderness(-1)

    def test_punctuated(self):
        gen = PunctuatedWatermarks()
        assert gen.punctuate(5) == 5
        with pytest.raises(WatermarkError):
            gen.punctuate(4)


class TestMerge:
    def test_minimum(self):
        assert merge_watermarks([5, 3, 9]) == 3

    def test_empty_is_complete(self):
        assert merge_watermarks([]) == MAX_TIMESTAMP

    @given(
        st.lists(
            st.integers(MIN_TIMESTAMP, MAX_TIMESTAMP), min_size=1
        )
    )
    def test_merge_is_min(self, values):
        # values beyond MAX_TIMESTAMP clamp to it: nothing is "more
        # complete" than a fully consumed input
        assert merge_watermarks(values) == min(values)
