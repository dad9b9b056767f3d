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
same pass cuts the stack into the bootstrap's blocks: it holds one block's
per-frame row/column marginals at a time, and when the block's last frame
arrives it turns them into exact joint distributions over pixel pairs,
collapsed at once onto the accumulator's pair coordinate, for
conditional-variance work.  It also counts the frames in which each pixel
fired, once for the whole stack: the single-photon profile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
class JointDistribution:
    """Ordered pair counts over one transverse axis, by the pair coordinate `mode`.

    For a pair whose first photon is in pixel a and second in pixel b,
    `signal` and `reference` count it in bin b - a + W - 1
    (Mode.DIFFERENCE) or a + b (Mode.SUM): int64 arrays of 2W - 1 bins.
    `signal` includes the same-photon (self) pairs, which land on a = b;
    their per-pixel total is `self_counts`, so downstream users can remove
    the artifact exactly (the accidental reference never cancels it).
    A joint does not name its axis: callers key it by "col" or "row".
    """

    mode: Mode
    signal: np.ndarray  # (2W-1,) int64 same-frame ordered pairs
    reference: np.ndarray  # (2W-1,) int64 adjacent-frame ordered pairs
    self_counts: np.ndarray  # (W,) photons per pixel column/row, summed over frames
    n_frames: int
    n_reference_pairs: int


def block_joint(counts: np.ndarray, mode: Mode) -> JointDistribution:
    """Joint pair distribution, on pair coordinate `mode`, of the frames whose
    marginals are the rows of `counts`.

    `counts[i, a]` is the number of photons of frame i in column (or row) a;
    the result carries no axis name, so the caller keys it.  float64
    sums of integer products are exact below 2**53; einsum keeps them off
    BLAS, whose thread pool would oversubscribe the cores when both planes'
    analyses run at once.  Each W x W product is collapsed at once, so a
    joint holds O(W) numbers.
    """
    if counts.shape[0] < 2:
        raise ParameterError("a joint distribution needs at least 2 frames")
    v = counts.astype(np.float64)
    return JointDistribution(
        mode=mode,
        signal=pair_histogram(np.einsum("na,nb->ab", v, v), mode),
        reference=pair_histogram(np.einsum("na,nb->ab", v[:-1], v[1:]), mode),
        self_counts=counts.sum(axis=0, dtype=np.int64),
        n_frames=counts.shape[0],
        n_reference_pairs=counts.shape[0] - 1,
    )


@dataclass
class StackResult:
    """Everything one pass over a frame stack produces."""

    map: CorrelationMap
    blocks: dict  # {"col": [JointDistribution, ...], "row": [...]}, one per block
    ones_per_frame: np.ndarray  # (N,) int64
    fired: np.ndarray  # (H, W) int32: the frames in which each pixel fired

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
    the stack into blocks [e_k, e_k+1): the row and column marginals of the
    current block's frames are held until its last frame arrives, then
    collapse into one `JointDistribution` per axis (`block_joint`).  The
    adjacent-frame pairs that straddle an edge are in the map but in no
    block.  None makes the whole stack one block.  Each pixel's count of
    fired frames is kept for the whole stack only (`StackResult.fired`).
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
        # the current block's per-frame marginals, and the closed blocks' joints
        self._block_edges = block_edges
        self._closing = frozenset(block_edges[1:] if block_edges else ())
        self._marginals: dict = {"col": [], "row": []}
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
        self._marginals["col"].append(bits.sum(axis=0, dtype=np.int32))
        self._marginals["row"].append(bits.sum(axis=1, dtype=np.int32))
        if len(self._ones) in self._closing:
            self._close_block()

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

    def _close_block(self):
        for axis, rows in self._marginals.items():
            self._blocks[axis].append(block_joint(np.vstack(rows), self.mode))
            rows.clear()

    # -- finalisation --------------------------------------------------------

    def _invert(self, spec: np.ndarray, expected_total: int) -> np.ndarray:
        """One inverse transform of a (transposed) spectrum -> integer window,
        with exactness checks."""
        full = np.fft.irfft2(spec.T, s=self._pad)
        if self.mode is Mode.DIFFERENCE:  # offsets wrap round the padded grid
            h, w = self.roi
            win = full[np.ix_(np.arange(-(h - 1), h) % self._pad[0],
                              np.arange(-(w - 1), w) % self._pad[1])]
        else:
            win = full[: self._map_shape[0], : self._map_shape[1]]
        rounded = np.rint(win)
        resid = np.max(np.abs(win - rounded)) if win.size else 0.0
        if resid > RESIDUAL_TOL:
            raise ConsistencyError(
                f"spectral route produced non-integer counts (residual {resid:.3g})"
            )
        out = rounded.astype(np.int64)
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
        if self._block_edges is None:
            self._close_block()
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
        return StackResult(cmap, self._blocks, ones, self._fired)


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
# 1-D histograms from joint distributions

def pair_axis(w: int, mode: Mode) -> np.ndarray:
    """Pair-coordinate grid of a W-pixel axis: b - a in [-(W-1), W-1] or a + b in [0, 2W-2]."""
    return np.arange(-(w - 1), w) if mode is Mode.DIFFERENCE else np.arange(0, 2 * w - 1)


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


def joint_excess_histogram(joint: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame pair excess along one axis: signal/N - reference/(N-1).

    Returns (`pair_axis` grid of the joint's mode, excess).  Self-pairs (a photon paired with
    itself) sit at a = b, so on b - a = 0 or on the even sums a + b = 2a;
    they are removed exactly, in integers, via the stored per-pixel totals.
    The accidental reference contains none, so leaving them in would fake a
    zero-offset (difference) / even-sum (sum) excess.
    """
    w = joint.self_counts.size
    sig = joint.signal.copy()
    if joint.mode is Mode.DIFFERENCE:
        sig[w - 1] -= joint.self_counts.sum()
    else:
        sig[::2] -= joint.self_counts
    excess = sig / joint.n_frames - joint.reference / joint.n_reference_pairs
    return pair_axis(w, joint.mode), excess
