"""Equivalence and error-path tests for the batched numeric kernels.

Every assertion here is exact (``np.array_equal``, not ``allclose``): the
kernels' contract is bitwise equality with the naive loops they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.errors import KernelError
from repro.core.kernels import (
    batched_power_spectra,
    boxcar_search,
    boxcar_search_reference,
    fold_block,
    harmonic_snr_block,
    index_postings,
    shift_sum,
    shift_sum_reference,
    threshold_hits,
)


class TestShiftSum:
    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(0)
        for n_channels, n_samples, n_trials in [(4, 64, 7), (16, 100, 3), (1, 33, 5)]:
            data = rng.normal(size=(n_channels, n_samples))
            shifts = rng.integers(0, n_samples, size=(n_trials, n_channels))
            assert np.array_equal(
                shift_sum(data, shifts), shift_sum_reference(data, shifts)
            )

    def test_wraparound_shifts(self):
        """Shifts beyond n_samples (and negative) wrap exactly like np.roll."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 50))
        shifts = np.array([[0, 49, 50], [51, 123, -7], [-50, 99, 1]])
        assert np.array_equal(
            shift_sum(data, shifts), shift_sum_reference(data, shifts)
        )

    def test_zero_shift_is_plain_sum(self):
        data = np.arange(12.0).reshape(3, 4)
        shifts = np.zeros((1, 3), dtype=np.int64)
        assert np.array_equal(shift_sum(data, shifts)[0], data.sum(axis=0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(KernelError):
            shift_sum(np.zeros(5), np.zeros((1, 5), dtype=int))
        with pytest.raises(KernelError):
            shift_sum(np.zeros((2, 5)), np.zeros((1, 3), dtype=int))
        with pytest.raises(KernelError):
            shift_sum(np.zeros((2, 0)), np.zeros((1, 2), dtype=int))


class TestBatchedSpectra:
    def test_rows_match_single_spectra(self):
        from repro.arecibo.fourier import power_spectrum

        rng = np.random.default_rng(2)
        block = rng.normal(size=(6, 256))
        spectra = batched_power_spectra(block)
        for row in range(block.shape[0]):
            assert np.array_equal(spectra[row], power_spectrum(block[row]))

    def test_rejects_short_or_1d_input(self):
        with pytest.raises(KernelError):
            batched_power_spectra(np.zeros(64))
        with pytest.raises(KernelError):
            batched_power_spectra(np.zeros((2, 8)))

    def test_rejects_degenerate_rows(self):
        block = np.ones((2, 64))  # zero variance -> zero median power
        with pytest.raises(KernelError):
            batched_power_spectra(block)


class TestHarmonicBlock:
    def test_matches_single_ladder(self):
        from repro.arecibo.fourier import harmonic_sum, summed_snr

        rng = np.random.default_rng(3)
        spectra = rng.exponential(size=(5, 128))
        for n_harmonics in (1, 2, 4, 8):
            block_snrs = harmonic_snr_block(spectra, n_harmonics)
            for row in range(spectra.shape[0]):
                expected = summed_snr(
                    harmonic_sum(spectra[row], n_harmonics), n_harmonics
                )
                assert np.array_equal(block_snrs[row], expected)

    def test_rejects_bad_ladder(self):
        with pytest.raises(KernelError):
            harmonic_snr_block(np.zeros((2, 8)), 0)
        with pytest.raises(KernelError):
            harmonic_snr_block(np.zeros((2, 8)), 9)
        with pytest.raises(KernelError):
            harmonic_snr_block(np.zeros(8), 2)


class TestThresholdHits:
    def test_groups_rows_in_bin_order(self):
        snrs = np.array([[1.0, 5.0, 3.0], [0.0, 0.0, 0.0], [9.0, 2.0, 4.0]])
        hits = threshold_hits(snrs, 3.0)
        assert len(hits) == 3
        assert hits[0][0].tolist() == [1, 2] and hits[0][1].tolist() == [5.0, 3.0]
        assert hits[1][0].size == 0
        assert hits[2][0].tolist() == [0, 2] and hits[2][1].tolist() == [9.0, 4.0]

    def test_matches_flatnonzero_per_row(self):
        rng = np.random.default_rng(4)
        snrs = rng.normal(size=(10, 40))
        for row, (bins, values) in enumerate(threshold_hits(snrs, 0.5)):
            expected = np.flatnonzero(snrs[row] >= 0.5)
            assert np.array_equal(bins, expected)
            assert np.array_equal(values, snrs[row][expected])

    def test_rejects_1d(self):
        with pytest.raises(KernelError):
            threshold_hits(np.zeros(4), 1.0)


BOXCAR_WIDTHS = (1, 2, 4, 8, 16, 32)


def assert_same_hits(block, widths, threshold):
    """Batched and reference boxcar hits are bitwise equal, row by row."""
    batched = boxcar_search(block, widths, threshold)
    reference = boxcar_search_reference(block, widths, threshold)
    assert len(batched) == len(reference) == len(block)
    for batched_row, reference_row in zip(batched, reference):
        for batched_part, reference_part in zip(batched_row, reference_row):
            assert np.array_equal(batched_part, reference_part)
            assert batched_part.dtype == reference_part.dtype
    return batched


class TestBoxcarSearch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference(self, dtype):
        rng = np.random.default_rng(6)
        block = rng.normal(size=(7, 512)).astype(dtype)
        hits = assert_same_hits(block, BOXCAR_WIDTHS, 2.5)
        assert sum(len(offsets) for _, offsets, _ in hits) > 0

    def test_bright_spike_row(self):
        rng = np.random.default_rng(7)
        block = rng.normal(size=(4, 1024))
        block[2, 300:308] += 15.0
        hits = assert_same_hits(block, BOXCAR_WIDTHS, 7.0)
        widths, offsets, _ = hits[2]
        # Every width of the ladder sees the spike, in width order.
        assert sorted(set(widths.tolist())) == list(BOXCAR_WIDTHS)
        assert widths.tolist() == sorted(widths.tolist())
        assert offsets.min() <= 300 <= offsets.max()

    def test_full_length_width_and_oversized_width(self):
        rng = np.random.default_rng(8)
        block = rng.normal(size=(3, 64))
        hits = assert_same_hits(block, (1, 64, 65), -np.inf)
        for widths, offsets, _ in hits:
            # 64 single-sample offsets, one full-length boxcar, no 65s.
            assert widths.tolist() == [1] * 64 + [64]
            assert offsets.tolist() == list(range(64)) + [0]

    def test_zero_mad_row_raises(self):
        rng = np.random.default_rng(9)
        block = rng.normal(size=(3, 128))
        block[1] = 5.0
        for search in (boxcar_search, boxcar_search_reference):
            with pytest.raises(KernelError, match="zero MAD"):
                search(block, BOXCAR_WIDTHS, 6.0)

    def test_rejects_bad_inputs(self):
        for search in (boxcar_search, boxcar_search_reference):
            with pytest.raises(KernelError):
                search(np.ones(16), BOXCAR_WIDTHS, 6.0)
            with pytest.raises(KernelError):
                search(np.random.default_rng(10).normal(size=(2, 16)), (0, 1), 6.0)

    @given(
        # Distinct samples keep the MAD nonzero, so most examples reach
        # the S/N ladder instead of the zero-MAD error.
        block=arrays(
            st.sampled_from([np.float32, np.float64]),
            st.tuples(st.integers(1, 5), st.integers(2, 80)),
            elements=st.floats(-1e6, 1e6, width=32),
            unique=True,
        ),
        widths=st.lists(st.integers(1, 100), min_size=1, max_size=6),
        threshold=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference(self, block, widths, threshold):
        try:
            boxcar_search_reference(block, widths, threshold)
        except KernelError:
            with pytest.raises(KernelError):
                boxcar_search(block, widths, threshold)
            return
        assert_same_hits(block, widths, threshold)


class TestFoldBlock:
    def test_matches_per_trial_fold(self):
        from repro.arecibo.folding import fold

        rng = np.random.default_rng(5)
        series = rng.normal(size=2048)
        tsamp = 1e-3
        periods = np.array([0.05, 0.0731, 0.11, 0.251])
        profiles, hits = fold_block(series, tsamp, periods, 32)
        for row, period in enumerate(periods):
            single = fold(series, tsamp, float(period), n_bins=32)
            assert np.array_equal(profiles[row], single.profile)
            assert np.array_equal(hits[row], single.hits)

    def test_rejects_bad_inputs(self):
        with pytest.raises(KernelError):
            fold_block(np.zeros((2, 4)), 1e-3, np.array([0.1]), 8)
        with pytest.raises(KernelError):
            fold_block(np.zeros(16), 1e-3, np.array([0.1]), 0)
        with pytest.raises(KernelError):
            fold_block(np.zeros(16), 0.0, np.array([0.1]), 8)
        with pytest.raises(KernelError):
            fold_block(np.zeros(16), 1e-3, np.array([-0.1]), 8)


class TestIndexPostings:
    def test_matches_incremental_build(self):
        docs = [
            ("u1", ["alpha", "beta", "alpha"]),
            ("u2", ["beta", "gamma"]),
            ("u3", []),
        ]
        postings, lengths, terms = index_postings(docs)
        assert postings == {"alpha": {"u1": 2}, "beta": {"u1": 1, "u2": 1},
                            "gamma": {"u2": 1}}
        assert lengths == {"u1": 3, "u2": 2, "u3": 0}
        assert terms == {"u1": ("alpha", "beta"), "u2": ("beta", "gamma"), "u3": ()}

    def test_later_duplicate_url_wins(self):
        postings, lengths, terms = index_postings(
            [("u", ["old", "stale"]), ("u", ["fresh"])]
        )
        assert postings == {"fresh": {"u": 1}}
        assert lengths == {"u": 1}
        assert terms == {"u": ("fresh",)}
