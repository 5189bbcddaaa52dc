"""Single-pulse (transient) search.

"Investigation of the time series for transient signals that may be
associated with astrophysical objects other than pulsars" — matched
filtering with a ladder of boxcar widths over each dedispersed time
series, thresholding, and clustering of overlapping detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.core import kernels
from repro.core.errors import KernelError, SearchError

DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class SinglePulseEvent:
    """One transient detection."""

    time_s: float
    width_s: float
    snr: float
    dm: float


def boxcar_snr(timeseries: np.ndarray, width: int) -> np.ndarray:
    """Matched-filter S/N of a boxcar of ``width`` samples at each offset.

    Mean and standard deviation are estimated robustly (median / MAD) so a
    bright pulse does not suppress its own significance.
    """
    try:
        return kernels.boxcar_snr(timeseries, width)
    except KernelError as exc:
        raise SearchError(str(exc)) from exc


def _cluster(
    hits: kernels.BoxcarHits, tsamp_s: float, dm: float
) -> List[SinglePulseEvent]:
    """Greedy clustering: the strongest hit absorbs everything overlapping it."""
    widths, offsets, snrs = hits
    raw_hits = [
        SinglePulseEvent(
            time_s=float((offset + width / 2.0) * tsamp_s),
            width_s=float(width * tsamp_s),
            snr=snr,
            dm=dm,
        )
        for width, offset, snr in zip(widths.tolist(), offsets.tolist(), snrs.tolist())
    ]
    raw_hits.sort(key=lambda event: -event.snr)
    kept: List[SinglePulseEvent] = []
    for hit in raw_hits:
        absorbed = False
        for winner in kept:
            if abs(hit.time_s - winner.time_s) <= max(hit.width_s, winner.width_s):
                absorbed = True
                break
        if not absorbed:
            kept.append(hit)
    return kept


def _search_block(
    search: Callable[..., Sequence[kernels.BoxcarHits]],
    block: np.ndarray,
    tsamp_s: float,
    dms: Sequence[float],
    snr_threshold: float,
    widths: Sequence[int],
) -> List[List[SinglePulseEvent]]:
    if tsamp_s <= 0:
        raise SearchError("sampling time must be positive")
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != len(dms):
        raise SearchError("block rows must match DM trials")
    try:
        hits = search(block, widths, snr_threshold)
    except KernelError as exc:
        raise SearchError(str(exc)) from exc
    return [_cluster(row, tsamp_s, dm) for row, dm in zip(hits, dms)]


def search_single_pulse_block(
    block: np.ndarray,
    tsamp_s: float,
    dms: Sequence[float],
    snr_threshold: float = 6.0,
    widths: Sequence[int] = DEFAULT_WIDTHS,
) -> List[List[SinglePulseEvent]]:
    """Boxcar ladder + threshold + clustering over every row of an
    ``(n_rows, n_samples)`` block of dedispersed series, one event list
    per row (row ``r`` searched at ``dms[r]``).

    One median/MAD and one cumsum per row serve the whole width ladder
    (:func:`repro.core.kernels.boxcar_search`); the event lists equal
    :func:`search_single_pulse_block_reference`'s exactly.
    """
    return _search_block(
        kernels.boxcar_search, block, tsamp_s, dms, snr_threshold, widths
    )


def search_single_pulse_block_reference(
    block: np.ndarray,
    tsamp_s: float,
    dms: Sequence[float],
    snr_threshold: float = 6.0,
    widths: Sequence[int] = DEFAULT_WIDTHS,
) -> List[List[SinglePulseEvent]]:
    """The per-row, per-width loop :func:`search_single_pulse_block`
    replaces.

    Retained as the equivalence oracle and the benchmark baseline.
    """
    return _search_block(
        kernels.boxcar_search_reference, block, tsamp_s, dms, snr_threshold, widths
    )


def search_single_pulses(
    timeseries: np.ndarray,
    tsamp_s: float,
    dm: float,
    snr_threshold: float = 6.0,
    widths: Sequence[int] = DEFAULT_WIDTHS,
) -> List[SinglePulseEvent]:
    """Boxcar ladder + threshold + greedy clustering of one time series."""
    series = np.asarray(timeseries)
    if series.ndim != 1:
        raise SearchError("time series must be 1-D")
    return search_single_pulse_block(
        series[None, :], tsamp_s, [dm], snr_threshold=snr_threshold, widths=widths
    )[0]
