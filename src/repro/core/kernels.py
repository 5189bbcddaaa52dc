"""Batched numeric kernels for the hot search paths.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; the compute that dominates every Figure-1 run is shift-and-sum
dedispersion, Fourier search, single-pulse boxcar search, and folding.
This module holds the vectorized cores those paths share, each one paired
with the naive loop it replaces (kept as ``*_reference``) so equivalence
is testable forever.

Every kernel here is **bitwise-equivalent** to its reference, not merely
close: batched execution performs the same floating-point operations in
the same order as the per-item loops (per-channel accumulation order,
per-row reductions along ``axis=1``), so pipelines may switch between the
two freely without perturbing any seeded result.  The equivalence suite
(``tests/core/test_kernels.py``) asserts ``np.array_equal``, and the
figure benchmarks pin exact recall — either would catch a ULP of drift.

Kernels raise :class:`~repro.core.errors.KernelError` on misuse; domain
wrappers (``repro.arecibo.dedisperse`` etc.) translate to their own error
types so callers see the same exceptions the naive paths raised.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.errors import KernelError


def shift_sum(data: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Sum ``data`` rows under per-(trial, channel) circular left-shifts.

    ``data`` is ``(n_channels, n_samples)``; ``shifts`` is
    ``(n_trials, n_channels)`` of integer left-shifts.  Returns the
    ``(n_trials, n_samples)`` float64 block where row ``t`` is
    ``sum_c roll(data[c], -shifts[t, c])`` — incoherent dedispersion's
    inner loop for every trial DM at once.

    The batch is a gather, not ``n_trials * n_channels`` rolls: the array
    is doubled along the sample axis so every circular shift is one
    contiguous window (``roll(x, -s)[i] == x[(i + s) % n]``), and
    ``sliding_window_view`` exposes all windows without copying.  Channels
    accumulate in index order into a float64 output, which is exactly the
    reference loop's addition order — hence bitwise equality.
    """
    data = np.asarray(data)
    shifts = np.asarray(shifts)
    if data.ndim != 2 or shifts.ndim != 2:
        raise KernelError("shift_sum needs 2-D data and 2-D shifts")
    n_channels, n_samples = data.shape
    if shifts.shape[1] != n_channels:
        raise KernelError(
            f"shifts has {shifts.shape[1]} columns for {n_channels} channels"
        )
    if n_samples == 0:
        raise KernelError("shift_sum needs at least one sample")
    wrapped = np.mod(shifts, n_samples)
    doubled = np.concatenate([data, data], axis=1)
    # (n_channels, n_samples + 1, n_samples): windows[c][s] == roll(data[c], -s)
    windows = np.lib.stride_tricks.sliding_window_view(doubled, n_samples, axis=1)
    out = np.zeros((shifts.shape[0], n_samples), dtype=np.float64)
    for channel in range(n_channels):
        out += windows[channel][wrapped[:, channel]]
    return out


def shift_sum_reference(data: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The naive per-trial ``np.roll`` loop :func:`shift_sum` replaces."""
    data = np.asarray(data)
    shifts = np.asarray(shifts)
    if data.ndim != 2 or shifts.ndim != 2:
        raise KernelError("shift_sum needs 2-D data and 2-D shifts")
    if shifts.shape[1] != data.shape[0]:
        raise KernelError(
            f"shifts has {shifts.shape[1]} columns for {data.shape[0]} channels"
        )
    if data.shape[1] == 0:
        raise KernelError("shift_sum needs at least one sample")
    out = np.zeros((shifts.shape[0], data.shape[1]), dtype=np.float64)
    for trial in range(shifts.shape[0]):
        for channel in range(data.shape[0]):
            out[trial] += np.roll(data[channel], -int(shifts[trial, channel]))
    return out


def batched_power_spectra(block: np.ndarray) -> np.ndarray:
    """Normalized power spectra of every row of a ``(n_series, n_samples)``
    block in one rfft call.

    Row ``r`` equals ``repro.arecibo.fourier.power_spectrum(block[r])``
    bitwise: mean subtraction, ``|rfft|**2``, DC-bin drop, and the
    median/ln2 noise normalization are all per-row reductions along
    ``axis=1``, which numpy evaluates identically to the 1-D calls.
    """
    series = np.asarray(block, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] < 16:
        raise KernelError("need a 2-D block of series with at least 16 samples")
    series = series - series.mean(axis=1, keepdims=True)
    spectra = np.abs(np.fft.rfft(series, axis=1)) ** 2
    spectra = spectra[:, 1:]  # drop DC
    medians = np.median(spectra, axis=1, keepdims=True)
    if np.any(medians <= 0):
        raise KernelError("degenerate spectrum (zero median power)")
    return spectra / (medians / np.log(2.0))


def harmonic_snr_block(
    spectra: np.ndarray, n_harmonics: int
) -> np.ndarray:
    """Harmonic-summed detection S/N for every row of a spectra block.

    Row ``r`` equals ``summed_snr(harmonic_sum(spectra[r], n), n)``: the
    h-fold compressed copies are gathered for all rows with one fancy
    index per harmonic, accumulated in ladder order.
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.ndim != 2:
        raise KernelError("harmonic_snr_block needs a 2-D spectra block")
    if n_harmonics < 1:
        raise KernelError("need at least one harmonic")
    n_bins = spectra.shape[1] // n_harmonics
    if n_bins < 1:
        raise KernelError("spectra too short for this many harmonics")
    total = np.zeros((spectra.shape[0], n_bins), dtype=np.float64)
    base = np.arange(1, n_bins + 1)
    for harmonic in range(1, n_harmonics + 1):
        total += spectra[:, harmonic * base - 1]
    return (total - n_harmonics) / np.sqrt(n_harmonics)


def threshold_hits(
    snrs: np.ndarray, threshold: float
) -> Sequence[Tuple[np.ndarray, np.ndarray]]:
    """Group above-threshold bins of an ``(n_rows, n_bins)`` S/N block by row.

    Returns one ``(bin_indices, snr_values)`` pair per row, each pair in
    ascending bin order — the same visit order as looping
    ``np.flatnonzero(row >= threshold)`` row by row, so downstream
    best-candidate bookkeeping reproduces the naive insertion order.
    """
    snrs = np.asarray(snrs)
    if snrs.ndim != 2:
        raise KernelError("threshold_hits needs a 2-D S/N block")
    # Flat indices are row-major, so `rows` comes out sorted (as from
    # np.nonzero, which is several times slower on a 2-D mask);
    # searchsorted finds the per-row slice boundaries without a
    # Python-level groupby.
    flat = np.flatnonzero(snrs >= threshold)
    rows, bins = np.divmod(flat, snrs.shape[1])
    values = snrs[rows, bins]
    bounds = np.searchsorted(rows, np.arange(snrs.shape[0] + 1)).tolist()
    return [
        (bins[lo:hi], values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


BoxcarHits = Tuple[np.ndarray, np.ndarray, np.ndarray]


def boxcar_snr(series: np.ndarray, width: int) -> np.ndarray:
    """Matched-filter S/N of a ``width``-sample boxcar at every offset of a
    1-D series.

    Mean and standard deviation are estimated robustly (median / MAD) so a
    bright pulse does not suppress its own significance.  This is the
    per-width building block of :func:`boxcar_search_reference`.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise KernelError("time series must be 1-D")
    if width < 1 or width > len(series):
        raise KernelError(f"bad boxcar width {width} for {len(series)} samples")
    median = np.median(series)
    mad = np.median(np.abs(series - median))
    sigma = 1.4826 * mad
    if sigma <= 0:
        raise KernelError("degenerate time series (zero MAD)")
    centered = series - median
    if width == 1:
        sums = centered
    else:
        cumulative = np.concatenate([[0.0], np.cumsum(centered)])
        sums = cumulative[width:] - cumulative[:-width]
    return sums / (sigma * np.sqrt(width))


def _stack_hits(
    widths: Sequence[np.ndarray],
    offsets: Sequence[np.ndarray],
    snrs: Sequence[np.ndarray],
) -> BoxcarHits:
    if not offsets:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    return np.concatenate(widths), np.concatenate(offsets), np.concatenate(snrs)


def boxcar_search(
    block: np.ndarray, widths: Sequence[int], threshold: float
) -> Sequence[BoxcarHits]:
    """Boxcar-ladder threshold hits for every row of an ``(n_rows,
    n_samples)`` block.

    Returns one ``(hit_widths, hit_offsets, hit_snrs)`` triple per row,
    hits in ``widths`` order, then ascending offset — the order
    :func:`boxcar_search_reference` visits them.  Widths above
    ``n_samples`` are skipped.  Median and MAD are per-row reductions
    along ``axis=1`` taken once for the whole ladder, and every width is a
    difference of one per-row ``cumsum`` (a sequential accumulate, like
    the 1-D call), so each S/N value is bitwise the reference's.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise KernelError("boxcar_search needs a 2-D block")
    n_rows, n_samples = block.shape
    ladder = [width for width in widths if width <= n_samples]
    if any(width < 1 for width in ladder):
        raise KernelError(f"bad boxcar width in {tuple(widths)}")
    per_row: list = [([], [], []) for _ in range(n_rows)]
    if ladder and n_rows:
        centered = block - np.median(block, axis=1, keepdims=True)
        sigmas = 1.4826 * np.median(np.abs(centered), axis=1, keepdims=True)
        if np.any(sigmas <= 0):
            raise KernelError("degenerate time series (zero MAD)")
        cumulative = np.zeros((n_rows, n_samples + 1), dtype=np.float64)
        np.cumsum(centered, axis=1, out=cumulative[:, 1:])
        # One scratch block serves every width (threshold_hits copies out
        # what it keeps); in-place ufuncs round exactly like fresh arrays.
        scratch = np.empty_like(centered)
        for width in ladder:
            snrs = scratch[:, : n_samples - width + 1]
            if width == 1:
                sums = centered
            else:
                sums = np.subtract(cumulative[:, width:], cumulative[:, :-width], out=snrs)
            np.divide(sums, sigmas * np.sqrt(width), out=snrs)
            for row, (offsets, values) in enumerate(threshold_hits(snrs, threshold)):
                if not len(offsets):
                    continue
                hit_widths, hit_offsets, hit_snrs = per_row[row]
                hit_widths.append(np.full(len(offsets), width, dtype=np.int64))
                hit_offsets.append(offsets)
                hit_snrs.append(values)
    return [_stack_hits(*row) for row in per_row]


def boxcar_search_reference(
    block: np.ndarray, widths: Sequence[int], threshold: float
) -> Sequence[BoxcarHits]:
    """The per-row, per-width :func:`boxcar_snr` loop :func:`boxcar_search`
    replaces."""
    block = np.asarray(block)
    if block.ndim != 2:
        raise KernelError("boxcar_search needs a 2-D block")
    results = []
    for series in block:
        hit_widths, hit_offsets, hit_snrs = [], [], []
        for width in widths:
            if width > len(series):
                continue
            snrs = boxcar_snr(series, width)
            offsets = np.flatnonzero(snrs >= threshold)
            hit_widths.append(np.full(len(offsets), width, dtype=np.int64))
            hit_offsets.append(offsets)
            hit_snrs.append(snrs[offsets])
        results.append(_stack_hits(hit_widths, hit_offsets, hit_snrs))
    return results


def fold_block(
    series: np.ndarray,
    tsamp_s: float,
    periods: np.ndarray,
    n_bins: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold one time series at many trial periods in one pass.

    Returns ``(profiles, hits)`` of shapes ``(n_trials, n_bins)``; row
    ``t`` matches ``repro.arecibo.folding.fold(series, tsamp_s,
    periods[t], n_bins)`` bitwise *provided* ``n_bins`` is the effective
    bin count for every period (callers group trials by the adjusted bin
    count; see ``fold_many``).  The scatter-add runs as one flattened
    ``np.bincount``, which accumulates weights in input order — the same
    order ``np.add.at`` visits each trial's samples.
    """
    series = np.asarray(series, dtype=np.float64)
    periods = np.asarray(periods, dtype=np.float64)
    if series.ndim != 1 or periods.ndim != 1:
        raise KernelError("fold_block needs a 1-D series and 1-D periods")
    if n_bins < 1:
        raise KernelError("need at least one phase bin")
    if tsamp_s <= 0 or np.any(periods <= 0):
        raise KernelError("period and sampling time must be positive")
    n_trials = len(periods)
    times = np.arange(len(series)) * tsamp_s
    # In-place arithmetic below performs the identical float ops the
    # per-trial fold does — it only avoids (n_trials, n_samples) temporaries.
    phases = times[None, :] % periods[:, None]
    phases /= periods[:, None]
    phases *= n_bins
    bins = phases.astype(np.int64)
    bins %= n_bins
    bins += (np.arange(n_trials) * n_bins)[:, None]
    flat = bins.ravel()
    weights = np.broadcast_to(series, bins.shape).ravel()
    profiles = np.bincount(flat, weights=weights, minlength=n_trials * n_bins)
    profiles = profiles.reshape(n_trials, n_bins)
    hits = np.bincount(flat, minlength=n_trials * n_bins).reshape(n_trials, n_bins)
    occupied = hits > 0
    profiles[occupied] /= hits[occupied]
    return profiles, hits.astype(np.int64)


def index_postings(
    tokenized_documents: Sequence[Tuple[str, Sequence[str]]],
) -> Tuple[dict, dict, dict]:
    """Build inverted-index structures over pre-tokenized documents.

    Returns ``(postings, doc_lengths, doc_terms)`` in one pass with local
    bindings hoisted out of the loop — the batched core behind
    ``TextIndex.add_many``.  Later duplicates of a URL win, matching
    repeated ``add`` calls.
    """
    postings: dict = {}
    doc_lengths: dict = {}
    doc_terms: dict = {}
    for url, tokens in tokenized_documents:
        if url in doc_terms:
            for term in doc_terms[url]:
                bucket = postings.get(term)
                if bucket is not None:
                    bucket.pop(url, None)
                    if not bucket:
                        del postings[term]
        counts: dict = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        doc_lengths[url] = len(tokens)
        doc_terms[url] = tuple(counts)
        for token, count in counts.items():
            bucket = postings.get(token)
            if bucket is None:
                bucket = postings[token] = {}
            bucket[url] = count
    return postings, doc_lengths, doc_terms
