"""Correlation accumulators against a brute-force pair-enumeration oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcam import Mode, StackAccumulator, peak_snr, subtract
from bpcam.correlate import (
    block_joint,
    joint_excess_histogram,
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


def assert_joint_equals_brute_force(joint, counts, mode):
    """`joint` against the int64 products of the marginal rows `counts` on `mode`."""
    b = counts.astype(np.int64)
    for got, want in ((joint.signal, collapse(b.T @ b)),
                      (joint.reference, collapse(b[:-1].T @ b[1:]))):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want[mode])
    np.testing.assert_array_equal(joint.self_counts, b.sum(axis=0))
    assert joint.n_frames == len(b) and joint.n_reference_pairs == len(b) - 1


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
    # 405 x 203 spectrum alone would be 1.3 MB
    frames = [rng.random((201, 201)) < 0.04 for _ in range(14)]
    for mode in Mode:
        acc = StackAccumulator((201, 201), mode)
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
        assert acc.finalize().n_frames == 14


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
        for axis, sum_over in (("col", 0), ("row", 1)):
            counts = np.array([f.sum(axis=sum_over) for f in frames])
            assert_joint_equals_brute_force(res.blocks[axis][0], counts, mode)
        # each pixel's count of fired frames
        assert res.fired.dtype == np.int32
        np.testing.assert_array_equal(res.fired, np.sum(frames, axis=0))


def test_joint_distribution_matches_marginal_products(rng):
    frames = random_stack(rng, 6, 7, 5, 0.4)
    res = run_accumulator(frames, Mode.SUM, block_edges=(0, 2, 5))
    cols = np.array([f.sum(axis=0) for f in frames])
    rows = np.array([f.sum(axis=1) for f in frames])
    for axis, counts in (("col", cols), ("row", rows)):
        first, second = res.blocks[axis]
        assert_joint_equals_brute_force(first, counts[:2], Mode.SUM)
        assert_joint_equals_brute_force(second, counts[2:], Mode.SUM)
    assert res.blocks["col"][1].n_frames == 3

    with pytest.raises(ParameterError):
        block_joint(cols[2:3], Mode.SUM)  # single frame
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
    frames = random_stack(rng, 5, 6, 23, 0.3)
    edges = make_blocks(len(frames), 4)
    longest = int(np.diff(edges).max())
    acc = StackAccumulator((5, 6), Mode.SUM, block_edges=edges)
    held = []
    for f in frames:
        acc.add(f)
        held.append({len(rows) for rows in acc._marginals.values()}.pop())
    assert max(held) < longest  # a block's last frame closes it at once
    assert held[-1] == 0
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


def test_joint_is_exact_for_large_counts_over_uneven_blocks(rng):
    # the products are summed in float64; they must equal the int64 brute
    # force for counts up to 2**20, on the unequal blocks make_blocks cuts
    n, w = 53, 7
    counts = rng.integers(0, 2**20 + 1, size=(n, w)).astype(np.int32)
    counts[:2] = 2**20
    edges = make_blocks(n, 10)
    assert len(set(np.diff(edges))) == 2
    for lo, hi in [(0, n), *zip(edges[:-1], edges[1:])]:
        for mode in Mode:
            assert_joint_equals_brute_force(block_joint(counts[lo:hi], mode), counts[lo:hi],
                                            mode)


def test_blocks_of_a_wide_stack_hold_o_w_numbers(rng):
    # each block keeps 1-D histograms over the 2W - 1 bins of its pair
    # coordinate, not W x W matrices: 2 (2W - 1) pair counts and W self-pair
    # totals
    w = 201
    counts = rng.poisson(8.0, size=(40, w)).astype(np.int32)
    edges = make_blocks(len(counts), 10)
    for lo, hi in zip(edges[:-1], edges[1:]):
        blk = block_joint(counts[lo:hi], Mode.SUM)
        arrays = [blk.signal, blk.reference, blk.self_counts]
        assert all(a.ndim == 1 for a in arrays)
        assert sum(a.size for a in arrays) == 2 * (2 * w - 1) + w


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


def test_joint_excess_removes_self_pairs(rng):
    """With one photon per frame there are no genuine within-frame pairs:
    after self-pair removal the zero-offset bin must drop by exactly one
    count per frame."""
    n, w = 6, 9
    counts = np.zeros((n, w), dtype=np.int32)
    cols = rng.integers(0, w, size=n)
    counts[np.arange(n), cols] = 1

    def kept(mode):  # the excess with the self-pairs left in
        joint = block_joint(counts, mode)
        return joint.signal / n - joint.reference / (n - 1)

    axis, removed = joint_excess_histogram(block_joint(counts, Mode.DIFFERENCE))
    kept_diff = kept(Mode.DIFFERENCE)
    zero = np.where(axis == 0)[0][0]
    assert kept_diff[zero] - removed[zero] == pytest.approx(1.0)
    off_zero = axis != 0
    np.testing.assert_allclose(kept_diff[off_zero], removed[off_zero])
    # on the sum axis a photon in pixel a pairs with itself at a + b = 2a
    axis, removed = joint_excess_histogram(block_joint(counts, Mode.SUM))
    assert axis.tolist() == list(range(2 * w - 1))
    np.testing.assert_allclose(kept(Mode.SUM) - removed,
                               np.bincount(2 * cols, minlength=2 * w - 1) / n)
