"""Pairwise correlation maps from stacks of thresholded frames.

For a stack of binary frames n_i(r, c) this module accumulates, over all
ordered photon pairs within a frame (self-pairs included):

  difference map  D(dr, dc) = sum_i sum_{r,c} n_i(r, c) n_i(r+dr, c+dc)
  sum map         S(sr, sc) = sum_i sum_{(r,c),(r',c')} n_i n_i' [r+r'=sr, c+c'=sc]

plus matching accidental references built from photons in *adjacent* frames
(frame i paired with frame i+1, one direction).  Genuine pair correlations
survive the per-frame-normalised subtraction signal/N - reference/(N-1);
uncorrelated structure (hot pixels, vignetting, noise counts) cancels.  One
accumulator builds one of the two maps: positions correlate in the
difference map, momenta anti-correlate in the sum map.

Two interchangeable accumulation routes are kept deliberately:

  * sparse: give each fired pixel (r, c) the flat map key k = r(2W-1) + c,
    so that a pair's sum bin is k + k' and its difference bin is
    k' - k + (H-1)(2W-1) + (W-1); one outer add or subtract over the key
    vectors enumerates every pair, and bincount histograms them - exact
    integer counting, fast for dilute frames;
  * spectral: zero-padded FFTs, accumulating sum |F|^2 (difference) or
    sum F^2 (sum) and the adjacent-frame cross products in the frequency
    domain with one inverse transform each at the end - O(HW log HW) per
    frame regardless of occupancy.  Each axis is padded to the next
    11-smooth length (`next_fast_len`).  The forward transforms and the
    products write into buffers allocated once per accumulator, through the
    `out=` argument that numpy.fft has had since numpy 2.0.

`StackAccumulator` picks the cheaper route per frame and verifies that the
spectral outputs land on integers (they must; the inputs are counts).  The
same pass cuts the stack into the bootstrap's blocks.  A block keeps the
map's central cut, the row and the column through the expected peak, and
its frames' photon totals per pixel column and row: at each block edge the
accumulator reads the cut of its running sums, the spectral part by
projection-slice (one row or column of a 2-D inverse transform is a 1-D
inverse of the phase-weighted spectrum), and a block's cut is the
difference of consecutive readings.  It also counts the frames in which
each pixel fired, once for the whole stack: the single-photon profile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import AnalysisError, ConsistencyError, ParameterError

#: spectral inverse transforms must land within this distance of an integer
RESIDUAL_TOL = 0.25

#: frames with at most this many photons take the sparse route
SPARSE_THRESHOLD = 256

#: `peak_snr`'s background: bins this many map bins (Chebyshev distance) from the peak
SNR_ANNULUS = (60, 150)


class Mode(str, Enum):
    """Which pair coordinate a map is histogrammed over."""

    DIFFERENCE = "difference"  # (r' - r, c' - c), genuine peak for correlated positions
    SUM = "sum"  # (r' + r, c' + c), genuine peak for anti-correlated momenta


@dataclass
class CorrelationMap:
    """Accumulated pair-count maps for one mode.

    `signal` counts ordered same-frame pairs (self-pairs included);
    `reference` counts ordered adjacent-frame pairs (frame i photon first,
    frame i+1 photon second), an estimate of the accidental background.
    Difference maps are indexed [dr + H - 1, dc + W - 1]; sum maps are
    indexed [sr, sc] directly.
    """

    mode: Mode
    signal: np.ndarray  # (2H-1, 2W-1) int64
    reference: np.ndarray  # (2H-1, 2W-1) int64
    n_frames: int
    n_reference_pairs: int  # number of adjacent-frame pairs = n_frames - 1
    roi: tuple[int, int]


@dataclass
class SubtractedMap:
    """signal/N - reference/(N-1), with contaminated bins masked out.

    Bin [i, j] sits at pair coordinate (pair_axis(H, mode)[i],
    pair_axis(W, mode)[j]), with (H, W) = `roi`.
    """

    mode: Mode
    values: np.ndarray  # (2H-1, 2W-1) float64, per-frame pair excess
    mask: np.ndarray  # bool, True where a bin is excluded from fits/statistics
    roi: tuple[int, int]


@dataclass
class MapCut:
    """Pair counts along one line of a map through its expected peak.

    Axis "col" is the map's central row H - 1, over the 2W - 1 column pair
    coordinates; axis "row" is its central column W - 1, over the 2H - 1 row
    ones (`central_cuts`).  `signal` and `reference` are those bins of the
    map's two arrays, and `photons` the photons per pixel column (row)
    summed over the frames: the single-photon profile.  A cut does not name
    its axis: callers key it by "col" or "row".
    """

    mode: Mode
    signal: np.ndarray  # (2W-1,) int64 same-frame ordered pairs
    reference: np.ndarray  # (2W-1,) int64 adjacent-frame ordered pairs
    photons: np.ndarray  # (W,) int64 photons per pixel column/row
    n_frames: int
    n_reference_pairs: int

    def __sub__(self, other: MapCut) -> MapCut:
        return MapCut(self.mode, *(getattr(self, f.name) - getattr(other, f.name)
                                   for f in fields(self)[1:]))


def central_cuts(a: np.ndarray, roi: tuple[int, int]) -> dict:
    """{"col": row H - 1, "row": column W - 1} of a (2H-1, 2W-1) map array, as views.

    Both lines pass through bin (H - 1, W - 1), where the genuine peak sits
    on a difference map (zero offset) and on a sum map (two pixels placed
    symmetrically about the optical axis, for even and odd sizes alike).
    """
    h, w = roi
    return {"col": a[h - 1], "row": a[:, w - 1]}


@dataclass
class StackResult:
    """Everything one pass over a frame stack produces."""

    map: CorrelationMap
    blocks: dict  # {"col": [MapCut, ...], "row": [...]}, one per block
    ones_per_frame: np.ndarray  # (N,) int64
    fired: np.ndarray  # (H, W) int32: the frames in which each pixel fired
    max_residual: float  # largest distance of a spectral inverse from its integers

    @property
    def n_frames(self) -> int:
        return int(self.ones_per_frame.size)

    @property
    def total_ones(self) -> int:
        return int(self.ones_per_frame.sum())


def next_fast_len(n: int) -> int:
    """The smallest 11-smooth length >= n: the lengths pocketfft transforms fastest."""
    m = int(n)
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _pair_totals(ones: np.ndarray) -> tuple[int, int]:
    """(sum N_i^2, sum N_i N_{i+1}) - expected map totals for checks."""
    ones = ones.astype(np.int64)
    return int(np.sum(ones * ones)), int(np.sum(ones[:-1] * ones[1:]))


class StackAccumulator:
    """Single-pass dual-route accumulator for one pair coordinate plus bootstrap blocks.

    Feed binary frames with `add`; call `finalize` once at the end.  `mode`
    picks the map: an image-plane stack needs only position differences, a
    far-field stack only momentum sums.  Frames with at most
    `sparse_threshold` photons are pair-counted directly; denser frames go
    through zero-padded FFTs whose products are accumulated in the frequency
    domain (one inverse transform each for signal and reference at the end).
    Adjacent-frame references take the sparse route only when both frames of
    the pair are sparse enough; otherwise the transform of the previous
    frame is (re)computed on demand.

    `block_edges` (0 = e_0 < e_1 < ... < e_K, each block >= 2 frames) cuts
    the stack into blocks [e_k, e_k+1), each one `MapCut` per axis: the
    difference of the running map's central cuts after the block's last
    frame and after the block before.  The adjacent-frame pair that
    straddles an edge falls in the later block, so the blocks pool back to
    the whole map's cuts exactly.  None makes the whole stack one block.
    Each pixel's count of fired frames is kept for the whole stack only
    (`StackResult.fired`).
    """

    def __init__(self, roi: tuple[int, int], mode: Mode,
                 sparse_threshold: int = SPARSE_THRESHOLD, block_edges=None):
        h, w = roi
        if h < 1 or w < 1:
            raise ParameterError(f"bad roi {roi!r}")
        if block_edges is not None:
            block_edges = tuple(int(e) for e in block_edges)
            if len(block_edges) < 2 or block_edges[0] != 0 \
                    or any(b - a < 2 for a, b in zip(block_edges, block_edges[1:])):
                raise ParameterError(f"block edges {block_edges} must start at 0 and give "
                                     "every block at least 2 frames")
        self.roi = (int(h), int(w))
        self.mode = Mode(mode)
        self.sparse_threshold = int(sparse_threshold)
        self._map_shape = (2 * h - 1, 2 * w - 1)
        self._flat_size = self._map_shape[0] * self._map_shape[1]
        # flat difference bin of a pair with zero offset
        self._centre = (h - 1) * self._map_shape[1] + (w - 1)
        self._max_residual = 0.0
        # sparse integer accumulators (flat)
        self._sig = np.zeros(self._flat_size, dtype=np.int64)
        self._ref = np.zeros(self._flat_size, dtype=np.int64)
        # spectral accumulators, held transposed (column frequency first), so
        # that the forward transform's complex pass runs along the last axis;
        # the difference signal sum |F|^2 is real, the sum signal sum F^2 is not
        self._pad = (next_fast_len(2 * h - 1), next_fast_len(2 * w - 1))
        spec_shape = (self._pad[1] // 2 + 1, self._pad[0])
        self._spec_sig = np.zeros(spec_shape, dtype=np.float64 if self.mode is Mode.DIFFERENCE
                                  else np.complex128)
        self._spec_ref = np.zeros(spec_shape, dtype=np.complex128)
        # the padded grid's indices of the map's bins: difference offsets
        # wrap round it, sums start at 0
        if self.mode is Mode.DIFFERENCE:
            self._grid = tuple(np.arange(-(n - 1), n) % p for n, p in zip(self.roi, self._pad))
        else:
            self._grid = tuple(np.arange(2 * n - 1) for n in self.roi)
        # projection-slice weights that turn the spectrum into the inverse's
        # central row (summed over the row frequency) and central column
        # (over the column half spectrum, whose bins other than DC and an
        # even length's Nyquist stand for two)
        (p0, p1), (r0, c0) = self._pad, (int(self._grid[0][h - 1]), int(self._grid[1][w - 1]))
        kc = np.arange(spec_shape[0])
        self._row_phase = np.exp(2j * np.pi * (np.arange(p0) * r0 % p0) / p0) / p0
        self._col_phase = (np.where((kc == 0) | (2 * kc == p1), 1.0, 2.0)
                           * np.exp(2j * np.pi * (kc * c0 % p1) / p1) / p1)
        # per-frame buffers, reused for every frame: the zero-padded frame as
        # float64 and its row transform (transposed; their pads stay zero),
        # the spectra of this frame and the previous one (they swap each
        # frame), and product scratch
        self._frame = np.zeros((h, self._pad[1]), dtype=np.float64)
        self._rows = np.zeros(spec_shape, dtype=np.complex128)
        self._spectra = [np.empty(spec_shape, dtype=np.complex128) for _ in range(2)]
        self._re = np.empty(spec_shape, dtype=np.float64)
        self._cx = np.empty(spec_shape, dtype=np.complex128)
        self._any_spectral = False
        # expected spectral-route totals, for exactness checks
        self._tot_sig_spec = 0
        self._tot_ref_spec = 0
        # previous frame (for the adjacent reference)
        self._prev: dict | None = None
        self._ones: list[int] = []
        # the cuts at the last block edge, and the closed blocks' cuts
        self._block_edges = block_edges
        self._closing = frozenset(block_edges[1:-1] if block_edges else ())
        self._last_cuts: dict | None = None
        self._blocks: dict = {"col": [], "row": []}
        self._fired = np.zeros(self.roi, dtype=np.int32)
        self._finalized = False

    # -- per-frame work ----------------------------------------------------

    def _keys(self, bits: np.ndarray) -> np.ndarray:
        """Flat map keys r(2W-1) + c of the fired pixels."""
        w = self.roi[1]
        q = np.flatnonzero(bits)
        return q + (q // w) * (w - 1)

    def _transform(self, frame: dict) -> np.ndarray:
        """The zero-padded rfft2 of a frame, into that frame's spectrum buffer.

        The real pass skips the all-zero pad rows, then the column transform
        runs at full padded length.  numpy's transforms write into the
        buffers (`out=`), so a frame allocates no new spectra; the inputs come
        padded, which numpy transforms faster than padding them itself.
        """
        h, w = self.roi
        np.copyto(self._frame[:, :w], frame["bits"])
        np.fft.rfft(self._frame, axis=1, out=self._rows[:, :h].T)
        frame["F"] = np.fft.fft(self._rows, axis=1, out=frame["spectrum"])
        return frame["F"]

    def _sparse_pairs(self, k1: np.ndarray, k2: np.ndarray, acc: np.ndarray):
        """Count ordered pairs (first photon from keys k1, second from k2)."""
        if self.mode is Mode.DIFFERENCE:
            lin = np.subtract.outer(k2 + self._centre, k1).ravel()
        else:
            lin = np.add.outer(k1, k2).ravel()
        acc += np.bincount(lin, minlength=self._flat_size)

    def add(self, bits: np.ndarray):
        """Accumulate one binary frame (bool or 0/1 array of shape roi)."""
        if self._finalized:
            raise ConsistencyError("accumulator already finalized")
        bits = np.asarray(bits)
        if bits.shape != self.roi:
            raise ParameterError(f"frame shape {bits.shape} != roi {self.roi}")
        if bits.dtype != np.bool_:
            bits = bits.astype(bool)
        n = int(np.count_nonzero(bits))
        self._ones.append(n)
        self._fired += bits

        # frames take turns with the two spectrum buffers
        cur: dict = {"n": n, "bits": bits, "keys": None, "F": None,
                     "spectrum": self._spectra[len(self._ones) % 2]}
        re, cx = self._re, self._cx
        if n <= self.sparse_threshold:
            k = cur["keys"] = self._keys(bits)
            self._sparse_pairs(k, k, self._sig)
        else:
            F = self._transform(cur)
            if self.mode is Mode.DIFFERENCE:  # |F|^2
                self._spec_sig += np.square(F.real, out=re)
                self._spec_sig += np.square(F.imag, out=re)
            else:
                self._spec_sig += np.square(F, out=cx)
            self._any_spectral = True
            self._tot_sig_spec += n * n

        prev = self._prev
        if prev is not None:
            if prev["keys"] is not None and cur["keys"] is not None:  # both sparse
                self._sparse_pairs(prev["keys"], cur["keys"], self._ref)
            else:
                # a sparse frame beside a dense one is transformed on demand
                F_prev = prev["F"] if prev["F"] is not None else self._transform(prev)
                F_cur = cur["F"] if cur["F"] is not None else self._transform(cur)
                if self.mode is Mode.DIFFERENCE:
                    F_prev = np.conjugate(F_prev, out=cx)
                self._spec_ref += np.multiply(F_prev, F_cur, out=cx)
                self._any_spectral = True
                self._tot_ref_spec += prev["n"] * n
        self._prev = cur
        # after this frame's reference pair: the pair that straddles the edge
        # falls in the next block
        if len(self._ones) in self._closing:
            self._close_block(self._running_cuts())

    # -- bootstrap blocks ------------------------------------------------------

    def _cuts(self, sig: dict, ref: dict) -> dict:
        """{axis: MapCut} of the frames so far, copied from `central_cuts` of both maps."""
        n = len(self._ones)
        return {axis: MapCut(self.mode, sig[axis].copy(), ref[axis].copy(),
                             self._fired.sum(axis=other, dtype=np.int64), n, n - 1)
                for axis, other in (("col", 0), ("row", 1))}

    def _running_cuts(self) -> dict:
        """The running map's central cuts: the sparse sums plus the spectral
        sums' inverse along the two lines only.

        irfft2 inverts the row frequency, then the column half spectrum, so
        its row r0 is irfft(S @ row_phase) and its column c0 is
        Re ifft(col_phase @ S) (S held transposed).  The real and imaginary
        weights apply one at a time, so the float difference signal is
        reduced in real products and no spectrum-sized copy is made.
        einsum keeps the products off BLAS, whose thread pool would
        oversubscribe the cores while both planes accumulate at once.
        """
        lines = [central_cuts(acc.reshape(self._map_shape), self.roi)
                 for acc in (self._sig, self._ref)]
        if self._any_spectral:
            p1 = self._pad[1]
            for line, spec in zip(lines, (self._spec_sig, self._spec_ref)):
                row, col = (np.einsum(form, spec, phase.real)
                            + 1j * np.einsum(form, spec, phase.imag)
                            for form, phase in (("kr,r->k", self._row_phase),
                                                ("kr,k->r", self._col_phase)))
                line["col"] = line["col"] + self._rounded(np.fft.irfft(row, n=p1)[self._grid[1]])
                line["row"] = line["row"] + self._rounded(np.fft.ifft(col).real[self._grid[0]])
        return self._cuts(*lines)

    def _close_block(self, cuts: dict):
        last = self._last_cuts
        for axis, cut in cuts.items():
            self._blocks[axis].append(cut if last is None else cut - last[axis])
        self._last_cuts = cuts

    # -- finalisation --------------------------------------------------------

    def _rounded(self, values: np.ndarray) -> np.ndarray:
        """Spectral counts -> int64, checked to lie within RESIDUAL_TOL of integers."""
        rounded = np.rint(values)
        resid = float(np.max(np.abs(values - rounded))) if values.size else 0.0
        if resid > RESIDUAL_TOL:
            raise ConsistencyError(
                f"spectral route produced non-integer counts (residual {resid:.3g})"
            )
        self._max_residual = max(self._max_residual, resid)
        return rounded.astype(np.int64)

    def _invert(self, spec: np.ndarray, expected_total: int) -> np.ndarray:
        """One inverse transform of a (transposed) spectrum -> integer window,
        with exactness checks."""
        out = self._rounded(np.fft.irfft2(spec.T, s=self._pad)[np.ix_(*self._grid)])
        total = int(out.sum())
        if total != expected_total:
            raise ConsistencyError(
                f"spectral route lost counts: window total {total}, expected {expected_total}"
            )
        return out

    def finalize(self) -> StackResult:
        if self._finalized:
            raise ConsistencyError("accumulator already finalized")
        self._finalized = True
        # the per-frame buffers go before the inverse transforms allocate
        self._frame = self._rows = self._spectra = self._re = self._cx = self._prev = None
        n_frames = len(self._ones)
        if self._block_edges is not None and n_frames != self._block_edges[-1]:
            raise ConsistencyError(
                f"fed {n_frames} frames, but the block edges end at {self._block_edges[-1]}")
        if n_frames < 2:
            raise ParameterError(f"need at least 2 frames, got {n_frames}")
        ones = np.asarray(self._ones, dtype=np.int64)
        exp_sig, exp_ref = _pair_totals(ones)
        sig = self._sig.reshape(self._map_shape)
        ref = self._ref.reshape(self._map_shape)
        if self._any_spectral:
            sig = sig + self._invert(self._spec_sig.astype(np.complex128, copy=False),
                                     self._tot_sig_spec)
            ref = ref + self._invert(self._spec_ref, self._tot_ref_spec)
        if int(sig.sum()) != exp_sig or int(ref.sum()) != exp_ref:
            raise ConsistencyError(f"pair-count conservation failed on the {self.mode.value} map")
        cmap = CorrelationMap(self.mode, sig, ref, n_frames, n_frames - 1, self.roi)
        # the last block ends on the finished maps
        self._close_block(self._cuts(central_cuts(sig, self.roi), central_cuts(ref, self.roi)))
        return StackResult(cmap, self._blocks, ones, self._fired, self._max_residual)


# ---------------------------------------------------------------------------
# subtraction and map statistics

def subtract(cmap: CorrelationMap, mask_smear_rows: bool = False) -> SubtractedMap:
    """Per-frame pair excess signal/N - reference/(N-1), with contaminated bins masked.

    On the difference map all self-pairs land on (0, 0), always masked, and
    vertical smear copies land on (dr = +/-1, dc = 0), masked when
    `mask_smear_rows`; neither is cancelled by the adjacent-frame reference.
    Sum maps spread both artifacts over broad ridges instead of single bins,
    so nothing is masked there.
    """
    if cmap.n_frames < 2 or cmap.n_reference_pairs < 1:
        raise ParameterError("subtraction needs at least 2 frames")
    values = cmap.signal / cmap.n_frames - cmap.reference / cmap.n_reference_pairs
    h, w = cmap.roi
    mask = np.zeros(values.shape, dtype=bool)
    if cmap.mode is Mode.DIFFERENCE:
        mask[h - 1, w - 1] = True
        if mask_smear_rows:
            mask[h - 2, w - 1] = True
            mask[h, w - 1] = True
    return SubtractedMap(cmap.mode, values, mask, cmap.roi)


@dataclass
class PeakSnr:
    """Peak significance of a subtracted map against its own background."""

    value: float
    peak_mean: float
    background_sigma: float
    n_peak_bins: int
    n_background_bins: int


def peak_snr(sub: SubtractedMap) -> PeakSnr:
    """Mean over the 3 x 3 window at the expected peak, divided by the
    standard error of the background (the SNR_ANNULUS of Chebyshev distances).

    The expected peak sits at bin (H - 1, W - 1) in both modes: zero offset
    on a difference map, and on a sum map the sum of two pixels placed
    symmetrically about the optical axis, which is H - 1 (W - 1) for even
    and odd sizes alike.  Masked bins are excluded from both regions.
    """
    h, w = sub.roi
    r0, c0 = h - 1, w - 1
    rows = np.arange(sub.values.shape[0])[:, None]
    cols = np.arange(sub.values.shape[1])[None, :]
    cheb = np.maximum(np.abs(rows - r0), np.abs(cols - c0))
    ok = ~sub.mask
    in_peak = (cheb <= 1) & ok
    lo, hi = SNR_ANNULUS
    in_bg = (cheb >= lo) & (cheb <= hi) & ok
    n_peak = int(np.count_nonzero(in_peak))
    n_bg = int(np.count_nonzero(in_bg))
    if n_peak == 0 or n_bg < 16:
        raise AnalysisError("peak window or background annulus is empty")
    peak_mean = float(sub.values[in_peak].mean())
    bg_sigma = float(sub.values[in_bg].std())
    if bg_sigma == 0.0:
        raise AnalysisError("background annulus has zero variance")
    value = peak_mean / (bg_sigma / np.sqrt(n_peak))
    return PeakSnr(value, peak_mean, bg_sigma, n_peak, n_bg)


# ---------------------------------------------------------------------------
# pair coordinates

def pair_axis(w: int, mode: Mode) -> np.ndarray:
    """Pair-coordinate grid of a W-pixel axis: b - a in [-(W-1), W-1] or a + b in [0, 2W-2]."""
    return np.arange(-(w - 1), w) if mode is Mode.DIFFERENCE else np.arange(0, 2 * w - 1)


# `pair_histogram` stays only because perfbench/tracing.py wraps it by name
@functools.lru_cache(maxsize=4)
def _pair_keys(w: int, mode: Mode) -> np.ndarray:
    """`pair_histogram`'s bins of a flattened (W, W) matrix on `mode`, read-only."""
    a, b = np.indices((w, w))
    keys = (b - a + (w - 1) if mode is Mode.DIFFERENCE else a + b).ravel()
    keys.flags.writeable = False
    return keys


def pair_histogram(matrix: np.ndarray, mode: Mode) -> np.ndarray:
    """Collapse a (W, W) pair matrix J[a, b] onto b - a or onto a + b.

    Returns int64 counts over the `pair_axis` grid of `mode`, one
    `bincount` over the bins b - a + W - 1 or a + b.  The entries must be
    integers (float64 ones too); the sums are exact below 2**53.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"pair matrix must be square, got {m.shape}")
    w = m.shape[0]
    counts = np.bincount(_pair_keys(w, mode), weights=m.ravel(), minlength=2 * w - 1)
    return np.rint(counts).astype(np.int64)

