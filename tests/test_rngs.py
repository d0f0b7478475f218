"""Stream keys: what rngs.stream and rngs.stream_id promise."""

import pytest

from minweight.rngs import stream_id


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_a_trailing_zero_part_gives_another_stream():
    # SeedSequence pads a key of fewer than four 32-bit words with zeros.
    assert stream_id(7, 501) != stream_id(7, 501, 0)
