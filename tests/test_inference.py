"""Width fitting, the singles profile, variance inference, bootstrap."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bpcam import (
    EprReport,
    Mode,
    block_bootstrap,
    combine_joints,
    dimensionality,
    epr_product,
    fit_gaussian,
    fit_joint_width,
    fit_map_width,
    inferred_variance,
    make_blocks,
)
from bpcam.correlate import (
    JointDistribution,
    StackAccumulator,
    SubtractedMap,
    block_joint,
    pair_histogram,
)
from bpcam.errors import AnalysisError, FitFailureError, ParameterError
from bpcam import inference
from bpcam.correlate import next_fast_len
from bpcam.inference import (
    MAX_NFEV_PER_PARAM,
    PIXEL_VAR_PAIR,
    axis_dimensionality,
    deconvolved_width,
    fit_singles_profile,
    gaussian,
    gaussian_jacobian,
    saturation_factors,
)


def noisy_gaussian(x, amplitude, center, sigma, offset, noise, rng):
    return gaussian(x, amplitude, center, sigma, offset) + rng.normal(0, noise, x.size)


# -- plain fits ----------------------------------------------------------------

def test_fit_gaussian_recovers_parameters(rng):
    x = np.arange(-50.0, 51.0)
    y = noisy_gaussian(x, 8.0, 3.5, 6.0, 2.0, 0.05, rng)
    fit = fit_gaussian(x, y)
    assert fit.amplitude == pytest.approx(8.0, rel=0.05)
    assert fit.center == pytest.approx(3.5, abs=0.1)
    assert fit.sigma == pytest.approx(6.0, rel=0.03)
    assert fit.offset == pytest.approx(2.0, abs=0.05)
    assert fit.sigma_err > 0 and fit.center_err > 0
    assert fit.n_points == x.size


def test_fit_gaussian_fixed_offset(rng):
    x = np.arange(-30.0, 31.0)
    y = noisy_gaussian(x, 5.0, 0.0, 4.0, 0.0, 0.02, rng)
    fit = fit_gaussian(x, y, fix_offset=0.0)
    assert fit.offset == 0.0
    assert fit.sigma == pytest.approx(4.0, rel=0.03)


def test_fit_gaussian_mask_excludes_corrupt_bins(rng):
    x = np.arange(-40.0, 41.0)
    y = noisy_gaussian(x, 6.0, 0.0, 5.0, 0.0, 0.02, rng)
    clean = fit_gaussian(x, y, fix_offset=0.0)
    y_bad = y.copy()
    mask = np.zeros(x.size, dtype=bool)
    bad = [38, 40, 42]
    y_bad[bad] = -50.0
    mask[bad] = True
    fit = fit_gaussian(x, y_bad, mask=mask, fix_offset=0.0)
    assert fit.sigma == pytest.approx(clean.sigma, rel=1e-3)
    assert fit.n_points == x.size - len(bad)


def test_fit_gaussian_failure_modes(rng):
    x = np.arange(-10.0, 11.0)
    with pytest.raises(FitFailureError, match="too few"):
        fit_gaussian([0, 1, 2], [0.0, 1.0, 0.0])
    with pytest.raises(FitFailureError):
        fit_gaussian(x, np.zeros(x.size), fix_offset=0.0)  # nothing above baseline


@pytest.mark.parametrize("model, jacobian, params", [
    (gaussian, gaussian_jacobian, (2.0, 0.5, 1.5, 0.3)),
    (gaussian, gaussian_jacobian, (-1.0, -2.0, 0.7, 0.0)),
])
def test_analytic_jacobians_match_central_differences(model, jacobian, params):
    x = np.linspace(-6.0, 6.0, 61)
    step = 1e-6
    numeric = np.empty((x.size, len(params)))
    for i in range(len(params)):
        up, down = list(params), list(params)
        up[i] += step
        down[i] -= step
        numeric[:, i] = (model(x, *up) - model(x, *down)) / (2 * step)
    np.testing.assert_allclose(jacobian(x, *params), numeric, rtol=0, atol=1e-8)


def test_fit_at_the_evaluation_cap_raises_and_names_the_count(rng, monkeypatch):
    x = np.arange(-30.0, 31.0)
    y = noisy_gaussian(x, 5.0, 2.0, 4.0, 0.0, 0.05, rng)
    assert fit_gaussian(x, y, fix_offset=0.0).nfev <= 3 * MAX_NFEV_PER_PARAM
    monkeypatch.setattr(inference, "MAX_NFEV_PER_PARAM", 1)
    with pytest.raises(FitFailureError, match="did not converge in 3 evaluations"):
        fit_gaussian(x, y, fix_offset=0.0)
    with pytest.raises(FitFailureError, match="did not converge in 4 evaluations"):
        fit_gaussian(x, y)


def test_fit_survives_a_huge_gain_ratio():
    """A Jacobian that understates the slope 1e120-fold predicts almost no
    reduction, so accepted steps beat it by ~1e120; the damping update
    must take that in stride and still reach the least-squares line."""
    x = np.linspace(-1.0, 1.0, 21)
    popt, _, nfev = inference.curve_fit(
        lambda xx, a, b: a + b * xx,
        lambda xx, a, b: 1e-120 * np.column_stack([np.ones_like(xx), xx]),
        x, 2.0 + 3.0 * x, [0.0, 0.0], ([-10.0, -10.0], [10.0, 10.0]))
    np.testing.assert_allclose(popt, [2.0, 3.0], atol=1e-9)
    assert nfev <= 2 * MAX_NFEV_PER_PARAM


def test_fits_reach_the_cost_of_scipys_curve_fit(rng, monkeypatch):
    """Noisy narrow and broad fits end at a cost no higher than scipy's
    trust-region fit from the same start and bounds, with the same errors."""
    optimize = pytest.importorskip("scipy.optimize")
    solver = inference.curve_fit
    pairs = []

    def both(model, jac, x, y, p0, bounds):
        popt, pcov, nfev = solver(model, jac, x, y, p0, bounds)
        ref, ref_cov = optimize.curve_fit(model, x, y, p0=p0, bounds=bounds, maxfev=20000)
        cost, ref_cost = (float(np.sum((model(x, *p) - y) ** 2)) for p in (popt, ref))
        pairs.append((cost, ref_cost, np.sqrt(np.diag(pcov)), np.sqrt(np.diag(ref_cov))))
        return popt, pcov, nfev

    monkeypatch.setattr(inference, "curve_fit", both)
    narrow = np.arange(-40.0, 41.0)
    profile = np.arange(0.0, 201.0)
    for _ in range(5):
        fit_gaussian(narrow, noisy_gaussian(narrow, 8.0, 1.5, 3.0, 0.5, 0.3, rng))
        fit_gaussian(narrow, noisy_gaussian(narrow, 5.0, -0.5, 2.5, 0.0, 0.3, rng),
                     fix_offset=0.0)
        fit_gaussian(profile, noisy_gaussian(profile, 10.0, 103.0, 50.0, 4.0, 0.3, rng),
                     fix_offset=4.0)
    assert len(pairs) == 15
    for cost, ref_cost, err, ref_err in pairs:
        assert cost <= ref_cost * (1 + 1e-9)
        np.testing.assert_allclose(err, ref_err, rtol=1e-3)


def test_next_fast_len_matches_scipy():
    fft = pytest.importorskip("scipy.fft")
    assert [next_fast_len(n) for n in range(1, 4097)] == \
        [fft.next_fast_len(n) for n in range(1, 4097)]
    assert next_fast_len(2 * 201 - 1) == 405


# -- the singles profile ---------------------------------------------------------

def test_saturation_factors_correct_each_bin():
    fired = np.array([[0, 50, 99], [0, 10, 20]])
    kappa = saturation_factors(fired, 100)
    p = fired / 100
    mu = -np.log1p(-p)
    assert kappa["col"][0] == 1.0  # a column that never fired
    np.testing.assert_allclose(kappa["col"][1:] * p.sum(axis=0)[1:], mu.sum(axis=0)[1:],
                               rtol=1e-12)
    np.testing.assert_allclose(kappa["row"] * p.sum(axis=1), mu.sum(axis=1), rtol=1e-12)
    assert (kappa["col"] >= 1.0).all() and (kappa["row"] >= 1.0).all()


def singles_joint(fired, n_frames):
    """A joint whose single-photon counts are the column sums of `fired`."""
    w = fired.shape[1]
    return JointDistribution(mode=Mode.DIFFERENCE, signal=np.zeros(2 * w - 1, dtype=np.int64),
                             reference=np.zeros(2 * w - 1, dtype=np.int64),
                             self_counts=fired.sum(axis=0), n_frames=n_frames,
                             n_reference_pairs=n_frames - 1)


def test_singles_profile_recovers_the_marginal_width():
    """Binary pixels under light g and darks p0 fire at p = 1 - (1 - p0) exp(-lam g).

    The corrected profile recovers the light's width; the raw firing
    fractions, flattened on top by saturation, read it wider.
    """
    h, w, n_frames, p0, sigma = 121, 161, 1_000_000, 0.02, 30.0
    r = np.arange(h)[:, None] - (h - 1) / 2
    c = np.arange(w)[None, :] - (w - 1) / 2
    g = np.exp(-0.5 * (r**2 + c**2) / sigma**2)
    p = 1.0 - (1.0 - p0) * np.exp(-0.16 * g)  # 16 % at the centre
    fired = np.rint(n_frames * p).astype(np.int64)
    joint = singles_joint(fired, n_frames)
    baseline = h * -math.log1p(-p0)
    fit = fit_singles_profile(joint, saturation_factors(fired, n_frames)["col"], baseline)
    assert fit.sigma == pytest.approx(sigma, rel=0.01)
    assert fit.center == pytest.approx((w - 1) / 2, abs=0.01)
    raw = fit_gaussian(np.arange(w), fired.sum(axis=0) / n_frames, fix_offset=h * p0)
    assert raw.sigma > 1.01 * sigma


def test_singles_profile_of_a_pixel_fired_in_every_frame_is_an_analysis_error():
    fired = np.full((5, 9), 3)
    fired[2, 4] = 10
    with pytest.raises(AnalysisError, match="every frame"):
        fit_singles_profile(singles_joint(fired, 10), saturation_factors(fired, 10)["col"], 0.1)


def test_deconvolved_width_removes_pixel_variance(rng):
    x = np.arange(-30.0, 31.0)
    y = noisy_gaussian(x, 5.0, 0.0, 3.0, 0.0, 0.01, rng)
    fit = fit_gaussian(x, y, fix_offset=0.0)
    w = deconvolved_width(fit, 16.0)
    assert w.fit is fit
    assert w.sigma_um == pytest.approx(
        16.0 * math.sqrt(fit.sigma**2 - PIXEL_VAR_PAIR), rel=1e-12
    )
    narrow = fit_gaussian(x, gaussian(x, 5.0, 0.0, 0.3, 0.0), fix_offset=0.0)
    with pytest.raises(AnalysisError, match="below the pixel-binning floor"):
        deconvolved_width(narrow, 16.0)


# -- synthetic joint distributions ------------------------------------------------

def synthetic_joint(w=201, sigma_narrow=3.0, sigma_broad=30.0, scale=5000.0,
                    mode=Mode.DIFFERENCE):
    """Factorised pair counts, narrow in b - a and broad in a + b about the centre,
    collapsed onto `mode`; the single-photon counts are the matching marginal."""
    a = np.arange(w)[:, None]
    b = np.arange(w)[None, :]
    centre = w - 1
    density = np.exp(-0.5 * ((b - a) / sigma_narrow) ** 2)
    density = density * np.exp(-0.5 * ((a + b - centre) / (2.0 * sigma_broad)) ** 2)
    sigma_marg = 0.5 * math.hypot(sigma_narrow, 2.0 * sigma_broad)
    singles = np.rint(scale * gaussian(np.arange(w), 1.0, centre / 2, sigma_marg, 0.0))
    # the signal holds the self-pairs too, on a = b, as the accumulator's does
    counts = np.rint(scale * density).astype(np.int64) + np.diag(singles.astype(np.int64))
    return JointDistribution(
        mode=mode,
        signal=pair_histogram(counts, mode),
        reference=np.zeros(2 * w - 1, dtype=np.int64),
        self_counts=singles.astype(np.int64),
        n_frames=1,
        n_reference_pairs=1,
    )


#: the singles profile of `synthetic_joint`: no saturation, no dark counts
NO_SATURATION = {"kappa": np.ones(201), "baseline": 0.0}


def flat_kappa(joints):
    return {axis: np.ones(j.self_counts.size) for axis, j in joints.items()}


def test_fit_joint_width_difference():
    joint = synthetic_joint()
    w = fit_joint_width(joint, 16.0)
    assert w.fit.sigma == pytest.approx(3.0, rel=0.02)
    assert w.sigma_um == pytest.approx(16.0 * math.sqrt(w.fit.sigma**2 - PIXEL_VAR_PAIR))


def test_fit_joint_width_ignores_the_zero_offset_bin():
    """The bin a binary camera cannot populate honestly is always excluded."""
    joint = synthetic_joint()
    crippled = synthetic_joint()
    crippled.signal[200] = 0  # kill every b - a = 0 count (W = 201)
    a = fit_joint_width(joint, 16.0)
    b = fit_joint_width(crippled, 16.0)
    assert b.fit.sigma == pytest.approx(a.fit.sigma, rel=1e-9)


def test_fit_joint_width_sum():
    """Anti-correlated coordinates: the narrow peak sits in a + b, self-pairs removed."""
    joint = synthetic_joint(sigma_narrow=30.0, sigma_broad=1.5, mode=Mode.SUM)
    w = fit_joint_width(joint, 16.0)
    # the a + b histogram carries twice the per-coordinate spread
    assert w.fit.sigma == pytest.approx(2.0 * 1.5, rel=0.02)


def test_inferred_variance_applies_the_optical_scale():
    joint = synthetic_joint()
    scale = 1.0 / 2.5
    iv = inferred_variance(joint, pitch_um=16.0, scale=scale)
    assert iv.variance == pytest.approx(iv.width.sigma_um**2 * scale**2)


def test_epr_product_is_a_plain_product():
    assert epr_product(2.0, 0.1) == pytest.approx(0.2)
    assert math.isinf(epr_product(float("inf"), 1.0))


def test_axis_dimensionality_counts_resolvable_modes():
    joint = synthetic_joint(sigma_narrow=3.0, sigma_broad=30.0)
    est = axis_dimensionality(joint, pitch_um=16.0, **NO_SATURATION)
    assert est.sigma_narrow_um == pytest.approx(3.0 * 16.0, rel=0.02)
    assert est.sigma_broad_um == pytest.approx(60.0 * 16.0, rel=0.02)
    expected_marg = 0.5 * math.hypot(est.sigma_narrow_um, est.sigma_broad_um)
    assert est.sigma_marginal_um == pytest.approx(expected_marg)
    expected_cov = math.erf(201 * 16.0 / (2 * math.sqrt(2) * expected_marg))
    assert est.coverage == pytest.approx(expected_cov, rel=1e-6)
    assert est.d_axis == pytest.approx(est.coverage * est.ratio)
    assert est.d_axis == pytest.approx(20.0, rel=0.05)
    assert est.substituted_from is None
    # a narrow fit made beforehand with the same arguments gives the same
    # estimate, and a passed-in fit is used as it is
    narrow = fit_joint_width(joint, 16.0)
    assert axis_dimensionality(joint, pitch_um=16.0, narrow_fit=narrow, **NO_SATURATION) == est
    wider = dataclasses.replace(narrow, fit=dataclasses.replace(narrow.fit,
                                                                sigma=1.1 * narrow.fit.sigma))
    assert axis_dimensionality(joint, pitch_um=16.0, narrow_fit=wider,
                               **NO_SATURATION).sigma_narrow_um == 1.1 * narrow.fit.sigma * 16.0


def test_axis_dimensionality_rejects_inverted_ordering():
    joint = synthetic_joint(mode=Mode.SUM)
    with pytest.raises(AnalysisError, match="inverted"):
        axis_dimensionality(joint, pitch_um=16.0, **NO_SATURATION)


def test_dimensionality_products_and_substitution():
    joints = {"col": synthetic_joint(), "row": synthetic_joint()}
    est = dimensionality(joints, pitch_um=16.0, smeared=False,
                         narrow_fit=None, kappa=flat_kappa(joints), dark_occupancy=0.0)
    assert list(est.axes) == ["col", "row"]
    assert est.d_total == pytest.approx(est.axes["col"].d_axis ** 2, rel=1e-9)
    # a narrow fit made beforehand with the same arguments is reused as it is
    narrow = fit_joint_width(joints["col"], 16.0)
    assert dimensionality(joints, pitch_um=16.0, smeared=False,
                          narrow_fit=narrow, kappa=flat_kappa(joints), dark_occupancy=0.0) == est

    # a smeared plane's row reuses the column's estimate and never reads its own joint
    sub = dimensionality({"col": joints["col"], "row": None}, pitch_um=16.0,
                         smeared=True, narrow_fit=None,
                         kappa=flat_kappa(joints), dark_occupancy=0.0)
    assert list(sub.axes) == ["col", "row"]
    assert sub.axes["row"].substituted_from == "col"
    assert sub.axes["row"].d_axis == sub.axes["col"].d_axis
    assert sub.d_total == pytest.approx(sub.axes["col"].d_axis ** 2)


def test_dimensionality_coverage_uses_each_axis_width():
    """A non-square region: the column joint spans 201 pixels, the row joint 151."""
    joints = {"col": synthetic_joint(w=201), "row": synthetic_joint(w=151)}
    est = dimensionality(joints, pitch_um=16.0, smeared=False,
                         narrow_fit=None, kappa=flat_kappa(joints), dark_occupancy=0.0)
    for axis, width in (("col", 201), ("row", 151)):
        ax = est.axes[axis]
        expected = math.erf(width * 16.0 / (2 * math.sqrt(2) * ax.sigma_marginal_um))
        assert ax.coverage == pytest.approx(expected, rel=1e-12)
    assert est.axes["row"].coverage < est.axes["col"].coverage
    assert est.d_total == est.axes["col"].d_axis * est.axes["row"].d_axis


# -- map cross-sections --------------------------------------------------------

def synthetic_map(mode, h=61, w=61, sigma=4.0, amplitude=5.0, noise=0.02, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, noise, size=(2 * h - 1, 2 * w - 1))
    x = np.arange(2 * w - 1)
    values[h - 1] += gaussian(x, amplitude, w - 1, sigma, 0.0)
    mask = np.zeros_like(values, dtype=bool)
    if mode is Mode.DIFFERENCE:
        mask[h - 1, w - 1] = True
    return SubtractedMap(mode, values, mask, (h, w))


@pytest.mark.parametrize("mode", [Mode.DIFFERENCE, Mode.SUM])
def test_fit_map_width_reads_the_central_cross_section(mode):
    sub = synthetic_map(mode)
    w = fit_map_width(sub, 16.0)
    assert w.fit.sigma == pytest.approx(4.0, rel=0.05)
    assert w.sigma_um == pytest.approx(16.0 * math.sqrt(4.0**2 - PIXEL_VAR_PAIR),
                                       rel=0.05)


# -- blocks and bootstrap --------------------------------------------------------

def poisson_blocks(n_frames=40, n_blocks=10, w=15, lam=3.0, seed=5):
    """{"col": block joints} of Poisson marginals, cut on `make_blocks`' edges."""
    counts = np.random.default_rng(seed).poisson(lam, size=(n_frames, w)).astype(np.int32)
    edges = make_blocks(n_frames, n_blocks)
    return {"col": [block_joint(counts[lo:hi], Mode.DIFFERENCE)
                    for lo, hi in zip(edges[:-1], edges[1:])]}


def test_blocks_pool_back_to_the_full_joint():
    frames = np.random.default_rng(5).random((40, 6, 15)) < 0.3
    edges = make_blocks(len(frames), 10)

    def blocks(**kwargs):
        acc = StackAccumulator(frames.shape[1:], Mode.DIFFERENCE, **kwargs)
        for f in frames:
            acc.add(f)
        return acc.finalize().blocks

    (full,) = blocks()["col"]
    cut = blocks(block_edges=edges)["col"]
    assert len(cut) == 10
    pooled = combine_joints(cut)
    np.testing.assert_array_equal(pooled.signal, full.signal)
    np.testing.assert_array_equal(pooled.self_counts, full.self_counts)
    assert pooled.n_frames == full.n_frames
    # pooling loses exactly the adjacent-frame pairs straddling block edges
    assert pooled.n_reference_pairs == full.n_reference_pairs - 9
    totals = frames.sum(axis=(1, 2)).astype(np.int64)
    straddle = sum(int(totals[e - 1] * totals[e]) for e in edges[1:-1])
    assert straddle > 0
    assert int(full.reference.sum() - pooled.reference.sum()) == straddle


def correlated_frames(n_frames=600, h=31, w=41, pairs=8.0, seed=3):
    """Binary frames of Poisson(`pairs`) position-correlated pairs (centres 5 px
    wide, partners 1.5 px apart) over dark fires at 2 %."""
    rng = np.random.default_rng(seed)
    frames = rng.random((n_frames, h, w)) < 0.02
    most = int(pairs + 8 * math.sqrt(pairs))
    centre = rng.normal(0.0, 5.0, size=(n_frames, most, 1, 2))
    split = rng.normal(0.0, 1.5, size=(n_frames, most, 1, 2)) * np.array([[-0.5], [0.5]])
    pos = np.rint(centre + split + [(h - 1) / 2, (w - 1) / 2]).astype(int)
    inside = (pos[..., 0] >= 0) & (pos[..., 0] < h) & (pos[..., 1] >= 0) & (pos[..., 1] < w)
    inside &= (np.arange(most)[:, None] < rng.poisson(pairs, n_frames)[:, None, None])
    frame = np.broadcast_to(np.arange(n_frames)[:, None, None], inside.shape)
    frames[frame[inside], pos[..., 0][inside], pos[..., 1][inside]] = True
    return frames


def test_blocks_pool_back_to_the_point_mode_count():
    frames = correlated_frames()
    edges = make_blocks(len(frames), 10)
    acc = StackAccumulator(frames.shape[1:], Mode.DIFFERENCE, block_edges=edges)
    for f in frames:
        acc.add(f)
    res = acc.finalize()
    np.testing.assert_array_equal(res.fired, frames.sum(axis=0))
    kappa = saturation_factors(res.fired, res.n_frames)

    def mode_count(blocks):
        joints = {ax: combine_joints(blk) for ax, blk in blocks.items()}
        return dimensionality(joints, pitch_um=16.0, smeared=False,
                              narrow_fit=None, kappa=kappa, dark_occupancy=0.02).d_total

    point = mode_count(res.blocks)
    assert point > 1.0
    # a resample that draws every block once, in any order, gives the point figure
    order = np.random.default_rng(1).permutation(10)
    assert mode_count({ax: [blk[i] for i in order] for ax, blk in res.blocks.items()}) == point
    # the pooled joints' profiles are the whole stack's sums of -ln(1 - p)
    mu = -np.log1p(-res.fired / res.n_frames)
    for axis, other in (("col", 0), ("row", 1)):
        pooled = combine_joints(res.blocks[axis])
        assert pooled.n_frames == res.n_frames
        np.testing.assert_allclose(kappa[axis] * pooled.self_counts / pooled.n_frames,
                                   mu.sum(axis=other), rtol=1e-12)


def test_make_blocks_validation():
    with pytest.raises(ParameterError, match="at least 1 block"):
        make_blocks(40, 0)
    assert make_blocks(40, 3).tolist() == [0, 13, 26, 40]
    # a bootstrap needs 10 blocks; pooling needs only one
    with pytest.raises(ParameterError, match="at least 10"):
        block_bootstrap(poisson_blocks(n_blocks=2), lambda joints: {}, n_boot=5)
    assert combine_joints(poisson_blocks(n_blocks=2)["col"]).n_frames == 40
    # a joint carries its pair coordinate, and joints on different ones do not pool
    parts = poisson_blocks(n_blocks=2)["col"]
    assert combine_joints(parts).mode is Mode.DIFFERENCE
    with pytest.raises(ParameterError, match="different pair coordinates"):
        combine_joints([parts[0], dataclasses.replace(parts[1], mode=Mode.SUM)])
    # a stack too short for its blocks is a failed estimate, not a caller mistake
    with pytest.raises(AnalysisError, match="too few"):
        make_blocks(12, 10)
    with pytest.raises(ParameterError, match="no joint blocks"):
        combine_joints([])


def test_block_bootstrap_constant_statistic_has_zero_error():
    blocks = poisson_blocks()
    out = block_bootstrap(blocks, lambda joints: {"c": 1.0}, n_boot=20, seed=1)
    assert out.errors["c"] == 0.0
    assert (out.n_ok, out.n_failed) == (20, 0)


def test_block_bootstrap_reproducible_and_positive():
    blocks = poisson_blocks()

    def stat(joints):
        return {"total": float(joints["col"].signal.sum())}

    a = block_bootstrap(blocks, stat, n_boot=30, seed=3).errors
    b = block_bootstrap(blocks, stat, n_boot=30, seed=3).errors
    c = block_bootstrap(blocks, stat, n_boot=30, seed=4).errors
    assert a["total"] == b["total"] > 0.0
    assert a["total"] != c["total"]


def test_block_bootstrap_skips_failing_resamples():
    blocks = poisson_blocks()
    calls = {"n": 0}

    def flaky(joints):
        calls["n"] += 1
        if calls["n"] % 2:
            raise AnalysisError("resample unusable")
        return {"v": float(calls["n"])}

    out = block_bootstrap(blocks, flaky, n_boot=20, seed=2)
    assert np.isfinite(out.errors["v"]) and out.errors["v"] > 0.0
    assert out.n_ok + out.n_failed == 20
    assert out.n_failed == 10


def test_block_bootstrap_rejects_mismatched_axes():
    blocks = poisson_blocks()
    lopsided = {"col": blocks["col"], "row": blocks["col"][:5]}
    with pytest.raises(ParameterError, match="disagree"):
        block_bootstrap(lopsided, lambda j: {}, n_boot=5)


# -- report serialisation --------------------------------------------------------

def test_epr_report_serialises_non_finite_values():
    report = EprReport(
        prediction={"mode_count": 3388.9},
        n_frames={"image": 2},
        occupancy={"image": 0.02},
        sigma_pos_um=float("nan"),
        sigma_mom_um=17.1,
        snr_pos=float("inf"),
        snr_mom=1.0,
        cond_var_x_um2=1.0,
        cond_var_p_hbar2_per_um2=1.0,
        epr_product_hbar2=1.0,
        heisenberg_bound_hbar2=0.25,
        epr_violated=False,
        snr_gate=5.0,
        d_pos=1.0,
        d_mom=1.0,
    )
    data = json.loads(report.to_json())
    assert data["sigma_pos_um"] == "nan"
    assert data["snr_pos"] == "inf"
    assert data["epr_violated"] is False
    assert data["prediction"]["mode_count"] == 3388.9
