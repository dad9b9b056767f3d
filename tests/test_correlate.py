"""Correlation accumulators against a brute-force pair-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcam import Mode, StackAccumulator, accumulate, peak_snr, subtract
from bpcam.correlate import (
    MarginalStack,
    default_mask,
    joint_excess_histogram,
    pair_histogram,
)
from bpcam.errors import ConsistencyError, ParameterError
from bpcam.inference import make_blocks


def brute_force_maps(frames):
    """Enumerate every ordered photon pair with plain Python loops.

    Returns (d_sig, d_ref, s_sig, s_ref) indexed like the accumulator output:
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
    return d_sig, d_ref, s_sig, s_ref


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


def run_accumulator(frames, **kwargs):
    acc = StackAccumulator(frames[0].shape, **kwargs)
    for f in frames:
        acc.add(f)
    return acc.finalize()


@pytest.mark.parametrize(
    "sparse_threshold",
    [10**9, 0, 8],
    ids=["all-sparse", "all-spectral", "mixed"],
)
def test_both_routes_match_brute_force(sparse_threshold, rng):
    for frames in (random_stack(rng, 7, 9, 6, 0.2), corner_stack(4, 13), corner_stack(13, 4)):
        d_sig, d_ref, s_sig, s_ref = brute_force_maps(frames)
        res = run_accumulator(frames, sparse_threshold=sparse_threshold)
        np.testing.assert_array_equal(res.difference.signal, d_sig)
        np.testing.assert_array_equal(res.difference.reference, d_ref)
        np.testing.assert_array_equal(res.sum_map.signal, s_sig)
        np.testing.assert_array_equal(res.sum_map.reference, s_ref)


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
    sparse = run_accumulator(frames, sparse_threshold=10**9)
    spectral = run_accumulator(frames, sparse_threshold=0)
    for a, b in ((sparse.difference, spectral.difference),
                 (sparse.sum_map, spectral.sum_map)):
        np.testing.assert_array_equal(a.signal, b.signal)
        np.testing.assert_array_equal(a.reference, b.reference)


def test_pair_totals_conserved(rng):
    frames = random_stack(rng, 11, 12, 8, 0.3)
    res = run_accumulator(frames)
    ones = res.ones_per_frame
    assert res.difference.signal.sum() == np.sum(ones**2)
    assert res.sum_map.signal.sum() == np.sum(ones**2)
    assert res.difference.reference.sum() == np.sum(ones[:-1] * ones[1:])
    assert res.sum_map.reference.sum() == np.sum(ones[:-1] * ones[1:])
    assert res.total_ones == ones.sum()
    assert res.n_frames == 8


def test_difference_map_is_centrosymmetric(rng):
    """Ordered pairs come in (i, j)/(j, i) couples, so the difference map is
    symmetric under offset negation."""
    frames = random_stack(rng, 8, 8, 5, 0.25)
    sig = run_accumulator(frames).difference.signal
    np.testing.assert_array_equal(sig, sig[::-1, ::-1])


def test_mirrored_frames_mirror_the_maps(rng):
    frames = random_stack(rng, 6, 10, 4, 0.3)
    mirrored = [f[:, ::-1] for f in frames]
    a = run_accumulator(frames)
    b = run_accumulator(mirrored)
    np.testing.assert_array_equal(b.difference.signal, a.difference.signal[:, ::-1])
    np.testing.assert_array_equal(b.sum_map.signal, a.sum_map.signal[:, ::-1])


def test_identical_frames_subtract_to_zero(rng):
    """A static pattern correlates with itself exactly as with its neighbour,
    so the per-frame excess cancels bin by bin."""
    frame = rng.random((9, 9)) < 0.3
    res = run_accumulator([frame.copy() for _ in range(5)])
    for cmap in (res.difference, res.sum_map):
        sub = subtract(cmap, mask_center=False)
        np.testing.assert_allclose(sub.values, 0.0, atol=1e-12)


def test_mode_restriction_skips_the_other_map(rng):
    frames = random_stack(rng, 7, 7, 4, 0.3)
    full = run_accumulator(frames)
    only_d = run_accumulator(frames, modes=(Mode.DIFFERENCE,))
    only_s = run_accumulator(frames, modes=("sum",))
    assert only_d.sum_map is None and only_s.difference is None
    np.testing.assert_array_equal(only_d.difference.signal, full.difference.signal)
    np.testing.assert_array_equal(only_s.sum_map.reference, full.sum_map.reference)
    with pytest.raises(ParameterError):
        StackAccumulator((4, 4), modes=())


def test_axes_and_marginals(rng):
    frames = random_stack(rng, 5, 8, 6, 0.4)
    res = run_accumulator(frames)
    assert res.difference.row_axis.tolist() == list(range(-4, 5))
    assert res.difference.col_axis.tolist() == list(range(-7, 8))
    assert res.sum_map.row_axis.tolist() == list(range(0, 9))
    assert res.sum_map.col_axis.tolist() == list(range(0, 15))
    cols = res.marginals["col"].counts
    rows = res.marginals["row"].counts
    np.testing.assert_array_equal(cols, np.array([f.sum(axis=0) for f in frames]))
    np.testing.assert_array_equal(rows, np.array([f.sum(axis=1) for f in frames]))


def test_joint_distribution_matches_marginal_products(rng):
    frames = random_stack(rng, 6, 7, 5, 0.4)
    res = run_accumulator(frames)
    ms = res.marginals["col"]
    joint = ms.joint()
    v = ms.counts.astype(np.int64)
    np.testing.assert_array_equal(joint.counts, v.T @ v)
    np.testing.assert_array_equal(joint.reference, v[:-1].T @ v[1:])
    np.testing.assert_array_equal(joint.self_counts, v.sum(axis=0))
    assert joint.n_frames == 5 and joint.n_reference_pairs == 4

    block = ms.joint(1, 4)
    vb = v[1:4]
    np.testing.assert_array_equal(block.counts, vb.T @ vb)
    assert block.n_frames == 3

    with pytest.raises(ParameterError):
        ms.joint(2, 3)  # single frame


def test_accumulator_guards(rng):
    acc = StackAccumulator((4, 4))
    with pytest.raises(ParameterError):
        acc.add(np.zeros((3, 3), dtype=bool))
    acc.add(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ParameterError):
        acc.finalize()  # only one frame
    acc2 = StackAccumulator((4, 4))
    acc2.add(np.zeros((4, 4), dtype=bool))
    acc2.add(np.zeros((4, 4), dtype=bool))
    acc2.finalize()
    with pytest.raises(ConsistencyError):
        acc2.add(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ConsistencyError):
        acc2.finalize()
    with pytest.raises(ParameterError):
        StackAccumulator((0, 4))
    with pytest.raises(ParameterError):
        accumulate([])


def test_joint_is_exact_for_large_counts_over_uneven_blocks(rng):
    # the products are summed in float64; they must equal the int64 brute
    # force for counts up to 2**20, on the unequal blocks make_blocks cuts
    n, w = 53, 7
    counts = rng.integers(0, 2**20 + 1, size=(n, w)).astype(np.int32)
    counts[:2] = 2**20
    ms = MarginalStack("col", counts)
    blocks = make_blocks({"col": ms, "row": MarginalStack("row", counts)}, 10)["col"]
    assert len({blk.n_frames for blk in blocks}) == 2
    edges = np.cumsum([0] + [blk.n_frames for blk in blocks])
    for lo, hi, blk in [(0, n, ms.joint()), *zip(edges[:-1], edges[1:], blocks)]:
        b = counts[lo:hi].astype(np.int64)
        np.testing.assert_array_equal(blk.counts, b.T @ b)
        np.testing.assert_array_equal(blk.reference, b[:-1].T @ b[1:])
        np.testing.assert_array_equal(blk.self_counts, b.sum(axis=0))


def test_accumulate_wrapper_accepts_array_likes(rng):
    frames = random_stack(rng, 5, 5, 3, 0.3)
    direct = run_accumulator(frames)
    as_lists = accumulate([f.astype(int).tolist() for f in frames])
    np.testing.assert_array_equal(as_lists.difference.signal, direct.difference.signal)


def test_subtraction_and_masks(rng):
    frames = random_stack(rng, 6, 6, 4, 0.3)
    res = run_accumulator(frames)
    sub = subtract(res.difference)
    expected = (res.difference.signal / 4) - (res.difference.reference / 3)
    np.testing.assert_allclose(sub.values, expected)
    assert sub.mask[5, 5]  # the self-pair bin
    assert sub.mask.sum() == 1

    smeared = subtract(res.difference, mask_smear_rows=True)
    assert smeared.mask[4, 5] and smeared.mask[6, 5]
    assert smeared.mask.sum() == 3

    assert subtract(res.sum_map).mask.sum() == 0

    mask = default_mask(Mode.DIFFERENCE, (6, 6), mask_center=False)
    assert mask.sum() == 0
    with pytest.raises(ParameterError):
        subtract(res.difference, mask=np.zeros((3, 3), dtype=bool))


def test_peak_snr_detects_a_planted_peak(rng):
    h = w = 81
    values = rng.normal(0.0, 1.0, size=(2 * h - 1, 2 * w - 1))
    values[h - 1, w - 1] += 500.0
    sub_like = subtract(
        run_accumulator(random_stack(rng, h, w, 2, 0.01)).difference,
        mask_center=False,
    )
    sub_like.values = values
    snr = peak_snr(sub_like)
    assert snr.value > 30.0
    assert snr.n_peak_bins == 9
    # a tight annulus far outside the map is rejected
    with pytest.raises(ParameterError):
        peak_snr(sub_like, annulus=(500, 600))


def test_pair_histogram_oracle(rng):
    m = rng.integers(0, 5, size=(6, 6))
    axis_d, hist_d = pair_histogram(m, Mode.DIFFERENCE)
    axis_s, hist_s = pair_histogram(m, Mode.SUM)
    want_d = np.zeros(11, dtype=np.int64)
    want_s = np.zeros(11, dtype=np.int64)
    for a in range(6):
        for b in range(6):
            want_d[b - a + 5] += m[a, b]
            want_s[a + b] += m[a, b]
    assert axis_d.tolist() == list(range(-5, 6))
    assert axis_s.tolist() == list(range(0, 11))
    np.testing.assert_array_equal(hist_d, want_d)
    np.testing.assert_array_equal(hist_s, want_s)
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
    from bpcam.correlate import MarginalStack

    joint = MarginalStack("col", counts).joint()
    axis, kept = joint_excess_histogram(joint, Mode.DIFFERENCE,
                                        remove_self_pairs=False)
    _, removed = joint_excess_histogram(joint, Mode.DIFFERENCE)
    zero = np.where(axis == 0)[0][0]
    assert kept[zero] - removed[zero] == pytest.approx(1.0)
    off_zero = axis != 0
    np.testing.assert_allclose(kept[off_zero], removed[off_zero])
