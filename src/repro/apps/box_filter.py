"""Box filtering (mean blur) in O(1) per pixel via the summed area table.

The classic SAT application from Crow [7]: once the SAT is built, the mean of
any ``(2r+1)²`` window is four lookups, independent of the radius.  Windows
are clamped at the image borders (each pixel is averaged over the part of its
window that lies inside the image), so the filter is exactly a normalized
box convolution with border truncation.

All windows are computed at once from one edge-padded copy ``Q`` of the SAT
``S``: ``r+1`` rows and columns of zeros before it and its last row and
column replicated ``r`` times after it.  With ``n = 2r+1`` the clamped
window sums are then the slice arithmetic
``Q[n:, n:] - Q[:rows, n:] - Q[n:, :cols] + Q[:rows, :cols]``, the corner
term added only where a window's top and left edges lie inside the image.
The window areas are the outer product of the clamped window heights and
widths.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sat.reference import sat_reference
from repro.sat.registry import compute_sat, host_sat


def window_sums_from_sat(sat: np.ndarray, radius: int) -> np.ndarray:
    """Clamped-window sums for every pixel, from a prebuilt SAT (vectorised).

    The sums come back in the SAT's own dtype (widened to at least ``int64``
    for integer SATs), so integer pixel data stays exact until a caller
    divides.  They are four shifted slices of one edge-padded copy of the
    SAT, so the pass reads contiguous rows and gathers nothing.
    """
    if radius < 0:
        raise ConfigurationError("box-filter radius must be non-negative")
    rows, cols = sat.shape
    acc = (np.result_type(sat.dtype, np.int64)
           if np.issubdtype(sat.dtype, np.integer) else sat.dtype)
    if sat.size == 0:
        return np.empty((rows, cols), dtype=acc)
    # A radius past the edge clamps every window to the whole axis, so
    # min(radius, axis length) gives the same windows with less padding.
    rr, rc = min(radius, rows), min(radius, cols)
    # Q[p, q] = S[p - rr - 1, q - rc - 1], zero above or left of S and
    # replicating S's last row and column below and right of it.
    Q = np.zeros((rows + 2 * rr + 1, cols + 2 * rc + 1), dtype=acc)
    Q[rr + 1:rr + 1 + rows, rc + 1:rc + 1 + cols] = sat
    Q[rr + 1 + rows:, rc + 1:rc + 1 + cols] = sat[-1]
    Q[rr + 1:, rc + 1 + cols:] = Q[rr + 1:, rc + cols:rc + cols + 1]
    nr, nc = 2 * rr + 1, 2 * rc + 1
    total = Q[nr:, nc:] - Q[:rows, nc:]
    total -= Q[nr:, :cols]
    # The corner term only where the window's top and left are both inside
    # the image: adding a zero corner would turn a -0.0 sum into +0.0.
    total[rr + 1:, rc + 1:] += Q[rr + 1:rows, rc + 1:cols]
    return total


def _window_extents(n: int, radius: int) -> np.ndarray:
    """Clamped window length along one axis of length ``n``."""
    i = np.arange(n)
    return np.minimum(i + radius, n - 1) - np.maximum(i - radius, 0) + 1


def window_areas(rows: int, cols: int, radius: int) -> np.ndarray:
    """Number of in-image pixels in each clamped window."""
    return np.multiply.outer(_window_extents(rows, radius).astype(np.float64),
                             _window_extents(cols, radius).astype(np.float64))


def box_filter(image: np.ndarray, radius: int, *,
               algorithm: str | None = None, tile_width: int = 32,
               gpu=None, engine=None,
               workers: int | None = None) -> np.ndarray:
    """Mean-filter ``image`` with a clamped ``(2·radius+1)²`` box window.

    With ``algorithm`` given, the SAT is built by that paper algorithm (on the
    simulator when ``gpu`` is provided, host path otherwise); the default uses
    the NumPy reference SAT.  ``engine`` picks a host executor
    (:func:`~repro.sat.registry.host_sat`) and is mutually exclusive with
    ``gpu``.

    Any dtype is accepted: integer images accumulate exactly (the SAT stack's
    exact dtype policy) and only the final mean division produces floats.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ConfigurationError("box_filter expects a 2-D image")
    if engine is not None:
        if gpu is not None:
            raise ConfigurationError(
                "a host engine and a simulator GPU are mutually exclusive")
        sat = host_sat(image, algorithm=algorithm, tile_width=tile_width,
                       engine=engine, workers=workers)
    elif algorithm is None:
        sat = sat_reference(image)
    else:
        result = compute_sat(image, algorithm=algorithm, tile_width=tile_width,
                             gpu=gpu, simulate=gpu is not None)
        sat = result.sat
    sums = window_sums_from_sat(sat, radius)
    return sums / window_areas(*image.shape, radius)


def box_filter_direct(image: np.ndarray, radius: int) -> np.ndarray:
    """O(r²)-per-pixel direct convolution oracle (for tests; intentionally
    simple and slow)."""
    image = np.asarray(image)
    rows, cols = image.shape
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            window = image[max(i - radius, 0):i + radius + 1,
                           max(j - radius, 0):j + radius + 1]
            out[i, j] = window.mean()
    return out
