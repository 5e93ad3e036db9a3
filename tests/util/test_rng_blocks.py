"""Block streams return exactly the values numpy's scalar calls return.

Every test draws from twin generators built from one seed: one wrapped
in a :class:`BlockStream`, one called a scalar at a time.  The block
stream must match value for value, across block refills and Lemire
rejections at a block edge, and refuse what it cannot serve exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import BLOCK_SIZE, BlockStream, RngStreams

EDGE_BOUNDS = (1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32)


def _twins(seed):
    """A block stream and a raw generator on the same seed."""
    return (
        BlockStream(np.random.default_rng(seed), f"twin-{seed}"),
        np.random.default_rng(seed),
    )


def _words_used(seed, bounds):
    """Replay numpy's bounded method over the raw 32-bit stream: the
    index of the first word each draw reads and how many it reads."""
    words = np.random.default_rng(seed).integers(
        2**32, size=4 * len(bounds) + BLOCK_SIZE, dtype=np.uint32
    ).tolist()
    pos, used = 0, []
    for n in bounds:
        if n == 1:
            used.append((pos, 0))
            continue
        start = pos
        m = words[pos] * n
        pos += 1
        if m & 0xFFFFFFFF < n:
            while m & 0xFFFFFFFF < (2**32 - n) % n:
                m = words[pos] * n
                pos += 1
        used.append((start, pos - start))
    return used


class TestIntegers:
    @pytest.mark.parametrize("seed", range(6))
    def test_edge_and_random_bounds_match_numpy(self, seed):
        blocks, raw = _twins(seed)
        pick = np.random.default_rng(1000 + seed)
        for i in range(3000):
            n = (
                EDGE_BOUNDS[i // 2 % len(EDGE_BOUNDS)]
                if i % 2
                else int(pick.integers(1, 2**32, endpoint=True))
            )
            assert blocks.integers(n) == int(raw.integers(n)), (i, n)

    def test_rejection_retry_across_a_block_edge(self):
        """``2**31 + 1`` rejects about half its words, so a run over
        several blocks retries across block edges; the replay proves
        the edge case is covered, not just likely."""
        n = 2**31 + 1
        bounds = [n] * (6 * BLOCK_SIZE) + [3, 1, 2**32 - 1] * 50
        used = _words_used(7, bounds)
        assert any(
            count > 1 and (first + 1) % BLOCK_SIZE == 0
            for first, count in used
        )
        assert used[-1][0] > 6 * BLOCK_SIZE  # several refills
        blocks, raw = _twins(7)
        assert [blocks.integers(b) for b in bounds] == [
            int(raw.integers(b)) for b in bounds
        ]

    def test_one_value_range_draws_nothing(self):
        blocks, raw = _twins(3)
        assert [blocks.integers(1) for _ in range(5)] == [0] * 5
        assert blocks.integers(10**6) == int(raw.integers(10**6))
        assert blocks._kind is not None  # the first real draw filled

    @settings(derandomize=True, database=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bounds=st.lists(
            st.one_of(
                st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32)
            ),
            min_size=1,
            max_size=3 * BLOCK_SIZE,
        ),
    )
    def test_any_bound_sequence_matches_numpy(self, seed, bounds):
        blocks, raw = _twins(seed)
        assert [blocks.integers(n) for n in bounds] == [
            int(raw.integers(n)) for n in bounds
        ]

    @pytest.mark.parametrize("n", [0, -1, -(2**40)])
    def test_empty_range_raises_as_numpy_does(self, n):
        blocks, raw = _twins(0)
        with pytest.raises(ValueError, match="high <= 0"):
            raw.integers(n)
        with pytest.raises(ValueError, match="high <= 0"):
            blocks.integers(n)

    def test_range_past_the_32_bit_stream_raises(self):
        with pytest.raises(ValueError, match="n <= 2\\*\\*32"):
            _twins(0)[0].integers(2**32 + 1)


class TestNormal:
    @pytest.mark.parametrize("seed", range(4))
    def test_scales_match_numpy(self, seed):
        blocks, raw = _twins(seed)
        scales = [10.0**-k for k in range(8)] + [0.0, 0.3, 1.0]
        for i in range(4 * BLOCK_SIZE + 7):
            loc = 0.0 if i % 5 else 0.25
            s = scales[i % len(scales)]
            got, want = blocks.normal(loc, s), float(raw.normal(loc, s))
            assert got == want and np.signbit(got) == np.signbit(want)

    def test_negative_scale_raises(self):
        with pytest.raises(ValueError, match="scale < 0"):
            _twins(0)[0].normal(0.0, -1.0)


class TestOneKindOneOwner:
    def test_blocks_fill_lazily(self):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        blocks = BlockStream(gen)
        assert gen.bit_generator.state == before
        blocks.normal(0.0, 1.0)
        assert gen.bit_generator.state != before

    @pytest.mark.parametrize(
        "first,second",
        [
            (lambda b: b.integers(5), lambda b: b.normal(0.0, 1.0)),
            (lambda b: b.normal(0.0, 1.0), lambda b: b.integers(5)),
        ],
        ids=["integers-then-normal", "normal-then-integers"],
    )
    def test_second_kind_raises(self, first, second):
        blocks = RngStreams(seed=1).blocks("x")
        first(blocks)
        with pytest.raises(ValueError, match="serves .* draws"):
            second(blocks)

    def test_block_stream_is_never_handed_out_raw(self):
        streams = RngStreams(seed=1)
        blocks = streams.blocks("x")
        assert streams.blocks("x") is blocks
        assert "x" in streams
        with pytest.raises(ValueError, match="drawn in blocks"):
            streams.get("x")

    def test_raw_stream_is_never_wrapped(self):
        streams = RngStreams(seed=1)
        streams.get("x")
        with pytest.raises(ValueError, match="handed out raw"):
            streams.blocks("x")

    def test_named_block_stream_is_the_named_raw_stream(self):
        """Switching a component to blocks keeps its values: the block
        stream of a name draws what ``get(name)`` would have drawn."""
        blocks = RngStreams(seed=9).blocks("reader-3")
        raw = RngStreams(seed=9).get("reader-3")
        assert [blocks.integers(17) for _ in range(600)] == [
            int(raw.integers(17)) for _ in range(600)
        ]

    def test_reset_drops_block_streams(self):
        streams = RngStreams(seed=2)
        first = streams.blocks("x").integers(1000)
        streams.reset()
        assert "x" not in streams
        assert streams.get("x").integers(1000) == first
