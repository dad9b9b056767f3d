"""Correlation accumulators against a brute-force pair-enumeration oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcam import Mode, StackAccumulator, peak_snr, subtract
from bpcam.correlate import (
    RESIDUAL_TOL,
    SNR_ANNULUS,
    SubtractedMap,
    central_cuts,
    pair_axis,
    pair_histogram,
)
from bpcam.errors import AnalysisError, ConsistencyError, ParameterError
from bpcam.inference import make_blocks


def brute_force_maps(frames):
    """Enumerate every ordered photon pair with plain Python loops.

    Returns {Mode: (signal, reference)} indexed like the accumulator output:
    difference bins at [dr + H - 1, dc + W - 1], sum bins at [sr, sc].
    """
    h, w = frames[0].shape
    shape = (2 * h - 1, 2 * w - 1)
    d_sig = np.zeros(shape, dtype=np.int64)
    s_sig = np.zeros(shape, dtype=np.int64)
    d_ref = np.zeros(shape, dtype=np.int64)
    s_ref = np.zeros(shape, dtype=np.int64)
    points = [np.argwhere(f) for f in frames]
    for pts in points:
        for r1, c1 in pts:
            for r2, c2 in pts:
                d_sig[r2 - r1 + h - 1, c2 - c1 + w - 1] += 1
                s_sig[r1 + r2, c1 + c2] += 1
    for prev, cur in zip(points, points[1:]):
        for r1, c1 in prev:
            for r2, c2 in cur:
                d_ref[r2 - r1 + h - 1, c2 - c1 + w - 1] += 1
                s_ref[r1 + r2, c1 + c2] += 1
    return {Mode.DIFFERENCE: (d_sig, d_ref), Mode.SUM: (s_sig, s_ref)}


def random_stack(rng, h, w, n, p):
    return [rng.random((h, w)) < p for _ in range(n)]


def corner_stack(h, w):
    """Frames lit only at the ROI's corners: their pairs reach the extreme
    difference bins (+/-(H-1), +/-(W-1)) and the sum bins 0 and 2H-2 / 2W-2."""
    corners = np.zeros((h, w), dtype=bool)
    corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    diagonal = np.zeros((h, w), dtype=bool)
    diagonal[[0, -1], [0, -1]] = True
    return [corners, diagonal, corners, diagonal[::-1]]


def run_accumulator(frames, mode, **kwargs):
    acc = StackAccumulator(frames[0].shape, mode, **kwargs)
    for f in frames:
        acc.add(f)
    return acc.finalize()


def assert_map_equals_brute_force(cmap, mode, frames):
    signal, reference = brute_force_maps(frames)[mode]
    assert cmap.mode is mode
    np.testing.assert_array_equal(cmap.signal, signal)
    np.testing.assert_array_equal(cmap.reference, reference)


def collapse(m):
    """A (W, W) integer pair matrix J[a, b] summed by b - a and by a + b, in loops."""
    w = m.shape[0]
    diff = np.zeros(2 * w - 1, dtype=np.int64)
    summ = np.zeros(2 * w - 1, dtype=np.int64)
    for a in range(w):
        for b in range(w):
            diff[b - a + w - 1] += m[a, b]
            summ[a + b] += m[a, b]
    return {Mode.DIFFERENCE: diff, Mode.SUM: summ}


def assert_block_equals_brute_force(res, k, frames, mode, lo, hi):
    """Block k, frames [lo, hi), against the brute-force maps' central cuts.

    Its signal holds its own frames' pairs; its reference holds the
    adjacent-frame pairs whose second frame is one of its own, so a block
    after the first also holds the pair that straddles its first edge.
    """
    signal = brute_force_maps(frames[lo:hi])[mode][0]
    reference = brute_force_maps(frames[max(lo - 1, 0):hi])[mode][1]
    roi = frames[0].shape
    for axis, other in (("col", 0), ("row", 1)):
        cut = res.blocks[axis][k]
        assert cut.mode is mode
        for got, want in ((cut.signal, signal), (cut.reference, reference)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, central_cuts(want, roi)[axis])
        np.testing.assert_array_equal(cut.photons, np.sum(frames[lo:hi], axis=(0, other + 1)))
        assert cut.n_frames == hi - lo and cut.n_reference_pairs == hi - max(lo, 1)


@pytest.mark.parametrize(
    "sparse_threshold",
    [10**9, 0, 8],
    ids=["all-sparse", "all-spectral", "mixed"],
)
def test_both_routes_match_brute_force(sparse_threshold, rng):
    for frames in (random_stack(rng, 7, 9, 6, 0.2), corner_stack(4, 13), corner_stack(13, 4)):
        for mode in Mode:
            res = run_accumulator(frames, mode, sparse_threshold=sparse_threshold)
            assert_map_equals_brute_force(res.map, mode, frames)


@settings(max_examples=20)
@given(
    h=st.integers(2, 9),
    w=st.integers(2, 9),
    n=st.integers(2, 5),
    p=st.floats(0.0, 0.5),
    seed=st.integers(0, 10_000),
)
def test_sparse_and_spectral_routes_agree(h, w, n, p, seed):
    """The integer pair counts must be identical whichever route ran."""
    frames = random_stack(np.random.default_rng(seed), h, w, n, p)
    for mode in Mode:
        a = run_accumulator(frames, mode, sparse_threshold=10**9).map
        b = run_accumulator(frames, mode, sparse_threshold=0).map
        np.testing.assert_array_equal(a.signal, b.signal)
        np.testing.assert_array_equal(a.reference, b.reference)


def frame_with(rng, h, w, n):
    """An (h, w) frame with exactly n fired pixels."""
    frame = np.zeros(h * w, dtype=bool)
    frame[rng.choice(h * w, size=n, replace=False)] = True
    return frame.reshape(h, w)


class CountingAccumulator(StackAccumulator):
    transforms = 0

    def _transform(self, frame):
        self.transforms += 1
        return super()._transform(frame)


def test_route_crossings_match_brute_force(rng):
    """Neighbouring frames on either side of sparse_threshold, in every order.

    A dense frame is transformed once into its own buffer.  Its sparse
    neighbour is transformed on demand for the adjacent reference, on
    either side: sparse -> dense transforms the previous frame, and dense ->
    sparse the current one.  Two sparse neighbours hold at most
    sparse_threshold**2 pairs and always take the sparse route, so no
    frame pair needs both transforms on demand.
    """
    counts = [3, 20, 2, 5, 30, 25, 1, 12, 8]  # threshold 8: dense at 20, 30, 25, 12
    frames = [frame_with(rng, 7, 9, n) for n in counts]
    for mode in Mode:
        acc = CountingAccumulator((7, 9), mode, sparse_threshold=8)
        for f in frames:
            acc.add(f)
        res = acc.finalize()
        # 4 dense frames; on demand 3 (before 20), 5 (before 30), 2 (after 20),
        # 8 (after 12) and 1 (after 25), whose spectrum is kept for its
        # reference with 12
        assert acc.transforms == 4 + 5
        assert_map_equals_brute_force(res.map, mode, frames)


def test_dense_frames_allocate_no_new_spectra(rng):
    # the transforms and products write into buffers made once; a fresh
    # 405 x 203 spectrum alone would be 1.3 MB.  Nor does the block edge at
    # frame 7 make one: it reads only the spectra's central row and column
    frames = [rng.random((201, 201)) < 0.04 for _ in range(14)]
    for mode in Mode:
        acc = StackAccumulator((201, 201), mode, block_edges=(0, 7, 14))
        for f in frames[:4]:
            acc.add(f)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for f in frames[4:]:
                acc.add(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 300_000
        res = acc.finalize()
        assert res.n_frames == 14 and len(res.blocks["col"]) == 2


def test_dense_accumulation_holds_no_row_or_scratch_spectra(rng):
    """Warmed up on dense 201 x 201 frames, an accumulator holds its two
    count maps, its two spectral sums, the two spectra that frames take in
    turn and the padded frame, and no other buffer of their size: the
    product scratch is the spent spectrum.  `finalize` drops the per-frame
    buffers before it inverts, so its peak stays within the same bound."""
    frames = [rng.random((201, 201)) < 0.04 for _ in range(6)]
    spectrum = 203 * 405 * 16  # the 405 x 405 padded rfft2, complex128, held transposed
    counts = 401 * 401 * 8  # one int64 map
    frame = 201 * 405 * 8  # the padded frame, float64
    small = 600_000  # the fired-pixel counts (0.16 MB), phases, grid and frame records
    for mode, sums in ((Mode.DIFFERENCE, 1.5 * spectrum), (Mode.SUM, 2 * spectrum)):
        bound = 2 * counts + sums + 2 * spectrum + frame + small
        tracemalloc.start()
        try:
            acc = StackAccumulator((201, 201), mode)
            for f in frames:
                acc.add(f)
            held, _ = tracemalloc.get_traced_memory()
            acc.finalize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < bound and peak < bound, (mode, held, peak, bound)


def test_pair_totals_conserved(rng):
    frames = random_stack(rng, 11, 12, 8, 0.3)
    for mode in Mode:
        res = run_accumulator(frames, mode)
        ones = res.ones_per_frame
        assert res.map.signal.sum() == np.sum(ones**2)
        assert res.map.reference.sum() == np.sum(ones[:-1] * ones[1:])
        assert res.total_ones == ones.sum()
        assert res.n_frames == 8


def test_difference_map_is_centrosymmetric(rng):
    """Ordered pairs come in (i, j)/(j, i) couples, so the difference map is
    symmetric under offset negation."""
    frames = random_stack(rng, 8, 8, 5, 0.25)
    sig = run_accumulator(frames, Mode.DIFFERENCE).map.signal
    np.testing.assert_array_equal(sig, sig[::-1, ::-1])


def test_mirrored_frames_mirror_the_maps(rng):
    frames = random_stack(rng, 6, 10, 4, 0.3)
    mirrored = [f[:, ::-1] for f in frames]
    for mode in Mode:
        a = run_accumulator(frames, mode).map
        b = run_accumulator(mirrored, mode).map
        np.testing.assert_array_equal(b.signal, a.signal[:, ::-1])


def test_identical_frames_subtract_to_zero(rng):
    """A static pattern correlates with itself exactly as with its neighbour,
    so the per-frame excess cancels bin by bin."""
    frame = rng.random((9, 9)) < 0.3
    for mode in Mode:
        sub = subtract(run_accumulator([frame.copy() for _ in range(5)], mode).map)
        np.testing.assert_allclose(sub.values, 0.0, atol=1e-12)


def test_axes_and_marginals(rng):
    frames = random_stack(rng, 5, 8, 6, 0.4)
    axes = {Mode.DIFFERENCE: (range(-4, 5), range(-7, 8)), Mode.SUM: (range(0, 9), range(0, 15))}
    for mode, (rows, cols) in axes.items():
        res = run_accumulator(frames, mode)
        assert pair_axis(res.map.roi[0], mode).tolist() == list(rows)
        assert pair_axis(res.map.roi[1], mode).tolist() == list(cols)
        # without block edges the whole stack is one block per axis
        assert [len(b) for b in res.blocks.values()] == [1, 1]
        assert_block_equals_brute_force(res, 0, frames, mode, 0, len(frames))
        # each pixel's count of fired frames
        assert res.fired.dtype == np.int32
        np.testing.assert_array_equal(res.fired, np.sum(frames, axis=0))


def test_block_cuts_match_brute_force(rng):
    frames = random_stack(rng, 6, 7, 5, 0.4)
    for mode in Mode:
        for threshold in (10**9, 0):
            res = run_accumulator(frames, mode, sparse_threshold=threshold,
                                  block_edges=(0, 2, 5))
            assert_block_equals_brute_force(res, 0, frames, mode, 0, 2)
            assert_block_equals_brute_force(res, 1, frames, mode, 2, 5)
    for edges in ((0, 1, 5), (1, 5), (0, 3, 2), (0,)):
        with pytest.raises(ParameterError, match="block edges"):
            StackAccumulator((6, 7), Mode.DIFFERENCE, block_edges=edges)


def test_block_edges_must_match_the_frames_fed(rng):
    frames = random_stack(rng, 4, 5, 6, 0.4)
    for n_fed in (5, 7):
        acc = StackAccumulator((4, 5), Mode.DIFFERENCE, block_edges=(0, 3, 6))
        for f in (frames + frames)[:n_fed]:
            acc.add(f)
        with pytest.raises(ConsistencyError, match="block edges end at 6"):
            acc.finalize()


def test_accumulator_holds_at_most_one_block_of_marginals(rng):
    # between edges the only block state held is one reading of the cuts, at
    # the last edge passed; a block's last frame closes it at once
    frames = random_stack(rng, 5, 6, 23, 0.3)
    edges = make_blocks(len(frames), 4)
    inner = edges[1:-1]
    acc = StackAccumulator((5, 6), Mode.SUM, block_edges=edges)
    for i, f in enumerate(frames, start=1):
        acc.add(f)
        passed = [e for e in inner if e <= i]
        assert len(acc._blocks["col"]) == len(acc._blocks["row"]) == len(passed)
        if passed:
            assert {cut.n_frames for cut in acc._last_cuts.values()} == {passed[-1]}
        else:
            assert acc._last_cuts is None
    res = acc.finalize()
    assert [blk.n_frames for blk in res.blocks["col"]] == np.diff(edges).tolist()


def test_accumulator_guards(rng):
    acc = StackAccumulator((4, 4), Mode.DIFFERENCE)
    with pytest.raises(ParameterError):
        acc.add(np.zeros((3, 3), dtype=bool))
    acc.add(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ParameterError):
        acc.finalize()  # only one frame
    acc2 = StackAccumulator((4, 4), Mode.SUM)
    acc2.add(np.zeros((4, 4), dtype=bool))
    acc2.add(np.zeros((4, 4), dtype=bool))
    acc2.finalize()
    with pytest.raises(ConsistencyError):
        acc2.add(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ConsistencyError):
        acc2.finalize()
    with pytest.raises(ParameterError):
        StackAccumulator((0, 4), Mode.DIFFERENCE)
    with pytest.raises(ParameterError):
        StackAccumulator((4, 4), Mode.SUM).finalize()  # no frames


def test_block_cuts_are_exact_over_uneven_blocks(rng):
    # every frame dense and spectral: each edge reads the cuts of the running
    # spectral sums, which must round to the brute-force counts on the
    # unequal blocks make_blocks cuts
    frames = random_stack(rng, 8, 9, 23, 0.5)
    edges = make_blocks(len(frames), 10)
    assert len(set(np.diff(edges))) == 2
    for mode in Mode:
        res = run_accumulator(frames, mode, sparse_threshold=0, block_edges=edges)
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            assert_block_equals_brute_force(res, k, frames, mode, lo, hi)
        assert 0.0 < res.max_residual < RESIDUAL_TOL


def test_a_doctored_spectrum_fails_at_the_block_edge(rng):
    """A spectrum whose inverse is off the integers raises at the next
    edge's reading, not only at `finalize`."""
    frames = random_stack(rng, 8, 9, 8, 0.5)
    for mode in Mode:
        acc = StackAccumulator((8, 9), mode, sparse_threshold=0, block_edges=(0, 4, 8))
        for f in frames[:2]:
            acc.add(f)
        # one frequency bin off: a plane wave of amplitude 0.6 in the inverse
        acc._spec_sig[1, 1] += 0.3 * np.prod(acc._pad)
        acc.add(frames[2])
        with pytest.raises(ConsistencyError, match="non-integer"):
            acc.add(frames[3])


def test_blocks_of_a_wide_stack_hold_o_w_numbers(rng):
    # each block keeps the 2W - 1 bins of the map's central row (2H - 1 of
    # its column), signal and reference, and W (H) photon totals, not W x W
    # matrices or per-frame marginals; a block's last frame closes it at once
    h, w = 151, 201
    frames = random_stack(rng, h, w, 23, 0.002)
    edges = make_blocks(len(frames), 4)
    res = run_accumulator(frames, Mode.SUM, block_edges=edges)
    for axis, n in (("col", w), ("row", h)):
        assert [blk.n_frames for blk in res.blocks[axis]] == np.diff(edges).tolist()
        for blk in res.blocks[axis]:
            arrays = [blk.signal, blk.reference, blk.photons]
            assert all(a.ndim == 1 for a in arrays)
            assert sum(a.size for a in arrays) == 2 * (2 * n - 1) + n


def test_add_accepts_array_likes(rng):
    frames = random_stack(rng, 5, 5, 3, 0.3)
    for mode in Mode:
        direct = run_accumulator(frames, mode)
        acc = StackAccumulator((5, 5), mode)
        for f in frames:
            acc.add(f.astype(int).tolist())
        as_lists = acc.finalize()
        np.testing.assert_array_equal(as_lists.map.signal, direct.map.signal)
        np.testing.assert_array_equal(as_lists.map.reference, direct.map.reference)


def test_subtraction_and_masks(rng):
    frames = random_stack(rng, 6, 6, 4, 0.3)
    diff = run_accumulator(frames, Mode.DIFFERENCE).map
    sub = subtract(diff)
    expected = (diff.signal / 4) - (diff.reference / 3)
    np.testing.assert_allclose(sub.values, expected)
    assert sub.mask[5, 5]  # the self-pair bin
    assert sub.mask.sum() == 1

    smeared = subtract(diff, mask_smear_rows=True)
    assert smeared.mask[4, 5] and smeared.mask[6, 5]
    assert smeared.mask.sum() == 3

    assert subtract(run_accumulator(frames, Mode.SUM).map).mask.sum() == 0


def test_peak_snr_detects_a_planted_peak(rng):
    h = w = 81
    values = rng.normal(0.0, 1.0, size=(2 * h - 1, 2 * w - 1))
    values[h - 1, w - 1] += 500.0
    sub_like = subtract(run_accumulator(random_stack(rng, h, w, 2, 0.01), Mode.DIFFERENCE).map)
    sub_like.values = values
    sub_like.mask[:] = False
    snr = peak_snr(sub_like)
    assert snr.value > 30.0
    assert snr.n_peak_bins == 9
    # a map smaller than the background annulus is a failed estimate
    small = subtract(run_accumulator(random_stack(rng, 20, 20, 2, 0.3), Mode.DIFFERENCE).map)
    with pytest.raises(AnalysisError, match="empty"):
        peak_snr(small)
    sub_like.values = np.ones_like(values)
    with pytest.raises(AnalysisError, match="zero variance"):
        peak_snr(sub_like)


@pytest.mark.parametrize("h, w", [(81, 81), (80, 80), (80, 121), (201, 160)])
def test_peak_snr_regions_are_chebyshev_squares(h, w):
    """`peak_snr`'s per-axis window and annulus hold the bins whose Chebyshev
    distance from (H - 1, W - 1) is at most 1 and within SNR_ANNULUS, on
    odd, even and non-square regions: the same bin counts, and the same
    statistics to the bit."""
    rng = np.random.default_rng(h * w)
    values = rng.normal(0.0, 1.0, (2 * h - 1, 2 * w - 1))
    values[h - 2:h + 1, w - 2:w + 1] += 20.0
    mask = rng.random(values.shape) < 0.05
    rows = np.arange(2 * h - 1)[:, None]
    cols = np.arange(2 * w - 1)[None, :]
    cheb = np.maximum(np.abs(rows - (h - 1)), np.abs(cols - (w - 1)))
    lo, hi = SNR_ANNULUS
    in_peak = (cheb <= 1) & ~mask
    in_bg = (cheb >= lo) & (cheb <= hi) & ~mask
    snr = peak_snr(SubtractedMap(Mode.SUM, values, mask, (h, w)))
    assert snr.n_peak_bins == np.count_nonzero(in_peak)
    assert snr.n_background_bins == np.count_nonzero(in_bg)
    assert snr.peak_mean == values[in_peak].mean()
    assert snr.background_sigma == values[in_bg].std()


@pytest.mark.parametrize("h, w", [(80, 80), (81, 81), (80, 81)])
def test_sum_map_peak_sits_at_h_minus_1_w_minus_1(h, w):
    """Pixels placed symmetrically about the optical axis, the centre of the
    region, sum to (H - 1, W - 1) for even and odd sizes alike; `peak_snr`
    centres its window there."""
    rng = np.random.default_rng(4)
    frames = []
    for _ in range(6):
        f = np.zeros((h, w), dtype=bool)
        r, c = rng.integers(0, h, 30), rng.integers(0, w, 30)
        f[r, c] = f[h - 1 - r, w - 1 - c] = True
        frames.append(f)
    sub = subtract(run_accumulator(frames, Mode.SUM).map)
    assert np.unravel_index(np.argmax(sub.values), sub.values.shape) == (h - 1, w - 1)
    sub.values = rng.normal(0.0, 0.01, sub.values.shape)
    sub.values[h - 2:h + 1, w - 2:w + 1] += 1.0  # a 3 x 3 peak about (H - 1, W - 1)
    assert peak_snr(sub).peak_mean == pytest.approx(1.0, abs=0.05)


def test_pair_histogram_oracle(rng):
    m = rng.integers(0, 5, size=(6, 6))
    want = collapse(m)
    assert pair_axis(6, Mode.DIFFERENCE).tolist() == list(range(-5, 6))
    assert pair_axis(6, Mode.SUM).tolist() == list(range(0, 11))
    for mode in Mode:
        hist = pair_histogram(m, mode)
        assert hist.dtype == np.int64
        np.testing.assert_array_equal(hist, want[mode])
        # float64 entries that hold integers collapse to the same counts
        np.testing.assert_array_equal(pair_histogram(m.astype(np.float64), mode), want[mode])
    with pytest.raises(ParameterError):
        pair_histogram(np.zeros((3, 4)), Mode.SUM)


def test_self_pairs_fall_in_the_masked_bin_of_the_cuts(rng):
    """With one photon per frame every within-frame pair is a self-pair: on
    a difference map they all land on the zero-offset bin, one per frame,
    which `subtract` masks on both central cuts."""
    n, h, w = 6, 5, 9
    frames = [frame_with(rng, h, w, 1) for _ in range(n)]
    res = run_accumulator(frames, Mode.DIFFERENCE)
    masks = central_cuts(subtract(res.map).mask, res.map.roi)
    for axis, (cut,) in res.blocks.items():
        zero = np.flatnonzero(pair_axis(cut.photons.size, Mode.DIFFERENCE) == 0)
        assert np.flatnonzero(masks[axis]).tolist() == zero.tolist()
        assert cut.signal[zero].tolist() == [n]
        assert np.delete(cut.signal, zero).sum() == 0
