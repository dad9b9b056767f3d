"""Gaussian fits, conditional variances, and entanglement figures of merit.

Everything here consumes the central cuts of the correlation maps that
`correlate` accumulates (`MapCut`: the map's row and column through the
expected peak, with the photon totals per pixel column and row) and turns
them into physical numbers:

  * fitted transverse correlation widths (position difference, momentum
    sum), one free-offset fit to the per-frame pair excess of a cut,
    corrected for pixel binning;
  * minimum inferred conditional variances Var(x1|x2), Var(p1|p2), the
    square of that same width scaled back to the source, and their product
    against the Heisenberg bound of 1/4 (hbar = 1 throughout);
  * an entangled-mode-count estimate per axis from the broad/narrow width
    ratio, the broad width taken from the saturation-corrected
    single-photon profile and the count derated by the fraction of that
    profile the sensor covers;
  * block-bootstrap standard errors for all of the above: each resample
    pools the blocks' cuts and calls the point estimators on them.

Claiming an EPR-type violation additionally requires the correlation peaks to
be statistically significant (`snr_gate`); with no detectable peak the width
estimates measure noise, and noise must not look like entanglement.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .correlate import MapCut, SubtractedMap, central_cuts, pair_axis
from .errors import AnalysisError, FitFailureError, ParameterError

#: variance added to a pair coordinate (sum or difference of two binned values)
PIXEL_VAR_PAIR = 1.0 / 6.0

#: narrow peaks are fitted within this many pixels of their highest bin
NARROW_WINDOW_PX = 40


def gaussian(x, amplitude, center, sigma, offset):
    return offset + amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2)


def gaussian_jacobian(x, amplitude, center, sigma, offset=0.0):
    """Derivatives of `gaussian` by (amplitude, center, sigma, offset), one column each."""
    u = (x - center) / sigma
    g = np.exp(-0.5 * u * u)
    dc = amplitude * g * u / sigma
    return np.column_stack([g, dc, dc * u, np.ones_like(g)])


#: a fit may evaluate its model at most this many times per parameter
MAX_NFEV_PER_PARAM = 50
_FTOL = 1e-10  # relative cost reduction below which a fit has converged
_XTOL = 1e-12  # relative scaled step below which a fit has converged
_BACKOFF = 0.5  # a step that would cross a bound goes this fraction of the way to it
_SNAP = 1e-4  # ... and lands on it within this fraction of the parameter's scale


def curve_fit(model, jac, x, y, p0, bounds):
    """Bounded Levenberg-Marquardt least squares of ``model(x, *p)`` against `y`.

    Returns (popt, pcov, nfev).  Each iteration solves
    (JtJ + lam diag(JtJ)) h = -Jt r, with `jac(x, *p)` the analytic
    Jacobian J, over the parameters that an outward gradient does not hold
    on a bound, and accepts the step when the cost falls; lam follows the
    ratio of actual to predicted reduction (Nielsen's update).  A step
    that would cross a bound goes only part of the way and snaps onto the
    bound once close, so a parameter reaches a bound over a few steps:
    landing on amplitude 0 at once would leave every other derivative zero.
    pcov is pinv(JtJ) * cost / (n - p), the scaling of an unweighted fit.
    Raises FitFailureError past MAX_NFEV_PER_PARAM evaluations per
    parameter, on a singular system or on a non-finite cost.
    """
    lower, upper = (np.asarray(b, dtype=np.float64) for b in bounds)
    p = np.clip(np.asarray(p0, dtype=np.float64), lower, upper)
    span = upper - lower
    tol = _SNAP * (np.abs(p) + np.where(np.isfinite(span), span, 0.0))
    max_nfev = MAX_NFEV_PER_PARAM * p.size

    def cost_at(q):
        r = model(x, *q) - y
        c = float(r @ r)
        if not math.isfinite(c):
            raise FitFailureError(f"non-finite cost {c} after {nfev} evaluations")
        return r, c

    nfev = 1
    r, cost = cost_at(p)
    lam, nu = 1.0, 2.0  # damping relative to diag(JtJ)
    try:
        while cost > 0.0:
            J = jac(x, *p)
            A = J.T @ J
            g = J.T @ r
            free = ~(((p - lower <= tol) & (g > 0.0)) | ((upper - p <= tol) & (g < 0.0)))
            d = np.maximum(np.diag(A), 1e-12 * max(np.diag(A).max(), 1e-300))
            while True:
                h = np.zeros_like(p)
                h[free] = np.linalg.solve(A[np.ix_(free, free)] + lam * np.diag(d[free]),
                                          -g[free])
                trial = p + h
                trial = np.where(trial < lower, p + _BACKOFF * (lower - p), trial)
                trial = np.where(trial > upper, p + _BACKOFF * (upper - p), trial)
                trial = np.where(trial - lower <= tol, lower,
                                 np.where(upper - trial <= tol, upper, trial))
                h = trial - p
                if np.sqrt(d @ h ** 2) <= _XTOL * np.sqrt(d @ p ** 2):
                    return p, _covariance(J, cost, x.size), nfev
                if nfev >= max_nfev:
                    raise FitFailureError(f"gaussian fit did not converge in {nfev} evaluations")
                nfev += 1
                r_new, cost_new = cost_at(trial)
                predicted = -float(h @ (2.0 * g + A @ h))
                rho = (cost - cost_new) / predicted if predicted > 0.0 else -1.0
                if rho > 0.0:
                    break
                lam *= nu
                nu *= 2.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
            nu = 2.0
            converged = max(cost - cost_new, predicted) <= _FTOL * cost
            p, r, cost = trial, r_new, cost_new
            if converged:
                break
        return p, _covariance(jac(x, *p), cost, x.size), nfev
    except np.linalg.LinAlgError as exc:
        raise FitFailureError(f"gaussian fit failed after {nfev} evaluations: {exc}") from exc


def _covariance(J: np.ndarray, cost: float, n: int) -> np.ndarray:
    """pinv(JtJ) * cost / (n - p), from the SVD of J with curve_fit's cutoff."""
    dof = n - J.shape[1]
    _, s, vt = np.linalg.svd(J, full_matrices=False)
    keep = s > np.finfo(np.float64).eps * max(J.shape) * s[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pcov = (vt[keep].T / s[keep] ** 2) @ vt[keep] * (cost / max(dof, 1))
    return pcov if dof > 0 and np.isfinite(pcov).all() else np.full(pcov.shape, np.inf)


@dataclass
class GaussianFit:
    amplitude: float
    center: float
    sigma: float
    offset: float
    sigma_err: float
    center_err: float
    n_points: int
    nfev: int = 0  # model evaluations the fit took


def _moment_start(x: np.ndarray, y: np.ndarray, fix_offset: float | None):
    """Moment-based (amplitude, centre, sigma, offset) starting point."""
    if fix_offset is None:
        edge = max(3, x.size // 10)
        offset = float(np.median(np.concatenate([y[:edge], y[-edge:]])))
    else:
        offset = float(fix_offset)
    w = np.clip(y - offset, 0.0, None)
    tot = float(w.sum())
    if tot <= 0.0:
        raise FitFailureError("no positive excess above the baseline")
    mu = float((x * w).sum() / tot)
    var = float(((x - mu) ** 2 * w).sum() / tot)
    span = float(x.max() - x.min()) or 1.0
    sigma = math.sqrt(var) if var > 0 else span / 10.0
    amplitude = float(y.max() - offset)
    if amplitude <= 0.0:
        raise FitFailureError("peak amplitude not positive")
    return amplitude, mu, sigma, offset


def fit_gaussian(
    x,
    y,
    mask=None,
    fix_offset: float | None = None,
) -> GaussianFit:
    """Least-squares Gaussian fit, moment-initialised.

    `mask` marks points to exclude (contaminated bins).  `fix_offset` holds
    the baseline constant instead of fitting it, for a known baseline under
    a wide, window-filling peak, which a free offset would trade off
    against the width (`fit_singles_profile`).  Raises
    FitFailureError when the optimiser fails or returns a degenerate
    width: sigma on a bound, or a zero amplitude that leaves sigma
    undetermined.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if mask is not None:
        keep = ~np.asarray(mask, dtype=bool)
        x, y = x[keep], y[keep]
    if x.size < (4 if fix_offset is not None else 5):
        raise FitFailureError(f"too few points to fit ({x.size})")
    amplitude, mu, sigma, offset = _moment_start(x, y, fix_offset)
    span = float(x.max() - x.min())
    p0 = [amplitude, mu, min(max(sigma, 1e-6), 5.0 * span)]
    lower = [0.0, x.min() - span, 1e-9]
    upper = [np.inf, x.max() + span, 10.0 * span]
    if fix_offset is None:
        model, jac = gaussian, gaussian_jacobian
        p0.append(offset)
        lower.append(-np.inf)
        upper.append(np.inf)
    else:
        def model(xx, a, c, s):
            return gaussian(xx, a, c, s, offset)

        def jac(xx, a, c, s):
            return gaussian_jacobian(xx, a, c, s)[:, :3]
    popt, pcov, nfev = curve_fit(model, jac, x, y, p0, (lower, upper))
    perr = np.sqrt(np.diag(pcov))
    fit = GaussianFit(
        amplitude=float(popt[0]),
        center=float(popt[1]),
        sigma=float(abs(popt[2])),
        offset=float(popt[3]) if fix_offset is None else offset,
        sigma_err=float(perr[2]),
        center_err=float(perr[1]),
        n_points=int(x.size),
        nfev=nfev,
    )
    if not np.isfinite(fit.sigma) or fit.sigma <= 2e-9 or fit.sigma >= 9.9 * span \
            or fit.amplitude <= 0.0:
        raise FitFailureError(f"fitted width degenerate: sigma={fit.sigma:g} over span {span:g} "
                              f"at amplitude {fit.amplitude:g}")
    return fit


# ---------------------------------------------------------------------------
# widths from the central cuts of the maps

@dataclass
class WidthEstimate:
    """A fitted transverse width, pixel-binning removed."""

    sigma_um: float
    fit: GaussianFit


def deconvolved_width(fit: GaussianFit, pitch_um: float) -> WidthEstimate:
    """`fit`'s width in um with the PIXEL_VAR_PAIR of pixel binning removed."""
    var = fit.sigma ** 2 - PIXEL_VAR_PAIR
    if var <= 0.0:
        raise AnalysisError(
            f"fitted width {fit.sigma:.3g} px is below the pixel-binning floor"
        )
    return WidthEstimate(math.sqrt(var) * pitch_um, fit)


def central_cross_section(sub: SubtractedMap):
    """The map row that the width fits read: (offsets_px, values, mask).

    Both give row H - 1 (`central_cuts`).  On a difference map that is
    dr = 0: vertical charge smear displaces rows only, so this row is
    smear-free, and the self-pair bin at zero offset arrives already
    masked.  On a sum map it is the row sum of two pixels placed
    symmetrically about the optical axis, for even and odd H alike.  The
    offsets are the map's column `pair_axis`.
    """
    return (pair_axis(sub.roi[1], sub.mode).astype(float),
            *(central_cuts(a, sub.roi)["col"] for a in (sub.values, sub.mask)))


def fit_map_width(cut: MapCut, mask: np.ndarray, pitch_um: float) -> WidthEstimate:
    """Correlation width of one central cut of a map, pixel binning removed.

    The per-frame pair excess signal/N - reference/(N-1) is fitted with a
    Gaussian and a free offset within NARROW_WINDOW_PX of its highest
    unmasked bin.  `mask` is the same cut of `subtract`'s mask: the
    self-pair bin of a difference map, and its smear rows on the central
    column of a smeared one.  Pooled over all blocks the cut is the whole
    map's, so this fit reads `central_cross_section` for axis "col".
    """
    x = pair_axis(cut.photons.size, cut.mode).astype(float)
    y = cut.signal / cut.n_frames - cut.reference / cut.n_reference_pairs
    peak = x[np.argmax(np.where(mask, -np.inf, y))]
    keep = np.abs(x - peak) <= NARROW_WINDOW_PX
    return deconvolved_width(fit_gaussian(x[keep], y[keep], mask=mask[keep]), pitch_um)


# ---------------------------------------------------------------------------
# inferred variances and the EPR product

def inferred_variance(width: WidthEstimate, scale: float) -> float:
    """Minimum inferred variance of one photon's coordinate given its partner's.

    The estimator is the projection x1_hat = +/- x2: its residual is the
    pair difference (correlated coordinates) or pair sum (anti-correlated
    ones), whose width `fit_map_width` measures.  For a two-mode-squeezed
    Gaussian state this inferred variance exceeds the true conditional
    variance only by a factor 1 + (narrow/broad)^2, a few 1e-4 here, so it
    is both honest (an upper bound can only weaken an apparent violation)
    and tight.  Use scale = 1/M on an image plane (source-plane um^2) and
    scale = k/f on a far field (hbar^2/um^2): (sigma * scale)^2.
    """
    return (width.sigma_um * scale) ** 2


def epr_product(var_x_um2: float, var_p_hbar2_per_um2: float) -> float:
    """Var(x1|x2) * Var(p1|p2); separable states cannot go below 1/4."""
    return var_x_um2 * var_p_hbar2_per_um2


# ---------------------------------------------------------------------------
# dimensionality

@dataclass
class AxisDimensionality:
    ratio: float  # broad width / narrow width, as detected
    coverage: float  # fraction of the single-photon marginal inside the field of view
    d_axis: float  # coverage * ratio
    sigma_narrow_um: float
    sigma_broad_um: float
    sigma_marginal_um: float
    substituted_from: str | None = None


@dataclass
class DimensionalityEstimate:
    d_total: float
    axes: dict


def saturation_factors(fired: np.ndarray, n_frames: int) -> dict:
    """{"col": (W,), "row": (H,)} factors kappa = sum mu / sum p over the other axis.

    A pixel that fires in a fraction p of the frames (`fired` / `n_frames`)
    received mu = -ln(1 - p) Poisson counts per frame, photons and dark
    counts alike.  A bin that never fired gets kappa = 1.  kappa times a
    pooled cut's `photons` / `n_frames` (its sum of p) is its
    saturation-corrected profile; on the whole stack, sum mu.
    """
    p = fired / n_frames
    with np.errstate(divide="ignore"):
        mu = -np.log1p(-p)
    out = {}
    for axis, other in (("col", 0), ("row", 1)):
        sum_p = p.sum(axis=other)
        out[axis] = np.divide(mu.sum(axis=other), sum_p, out=np.ones_like(sum_p),
                              where=sum_p > 0)
    return out


def fit_singles_profile(cut: MapCut, kappa: np.ndarray, baseline: float) -> GaussianFit:
    """Gaussian fit of kappa * `photons` / `n_frames`, the corrected singles profile.

    The offset is held at `baseline`, the dark counts' known share: fitted
    freely, it trades off against the width of a profile that fills the
    field of view.
    """
    profile = kappa * cut.photons / cut.n_frames
    if not np.isfinite(profile).all():
        raise AnalysisError("a pixel fired in every frame: its saturation cannot be corrected")
    return fit_gaussian(np.arange(profile.size, dtype=np.float64), profile,
                        fix_offset=baseline)


def axis_dimensionality(
    cut: MapCut,
    *,
    mask: np.ndarray,
    pitch_um: float,
    kappa: np.ndarray,
    baseline: float,
    narrow_fit: WidthEstimate | None = None,
) -> AxisDimensionality:
    """Mode count along one axis: coverage * (broad width / narrow width).

    The narrow width is `fit_map_width` of the cut (`mask` its mask), on
    the map's pair coordinate (DIFFERENCE for correlated positions, SUM for
    anti-correlated momenta), or `narrow_fit` when the caller already made
    that fit.  The broad one follows from the single-photon width
    (`fit_singles_profile`) by 4 Var(x1) = Var(x1 + x2) + Var(x1 - x2).
    All widths are as detected: binning adds 1/12 px^2 per photon and
    1/6 px^2 per pair coordinate, so the identity holds.  The coverage
    erf(extent / (2 sqrt(2) sigma_marginal)) is the chance that a photon
    lands on the cut's pixel columns (rows) at all.
    """
    wn = narrow_fit or fit_map_width(cut, mask, pitch_um)
    narrow_um = wn.fit.sigma * pitch_um
    marg_um = fit_singles_profile(cut, kappa, baseline).sigma * pitch_um
    broad_var = 4.0 * marg_um ** 2 - narrow_um ** 2
    if broad_var <= narrow_um ** 2:
        raise AnalysisError(
            "width ordering inverted: the coordinate expected to be narrow "
            f"fitted {narrow_um:.3g} um against a single-photon width of {marg_um:.3g} um"
        )
    broad_um = math.sqrt(broad_var)
    extent_px = cut.photons.size
    coverage = math.erf(extent_px * pitch_um / (2.0 * math.sqrt(2.0) * marg_um))
    ratio = broad_um / narrow_um
    return AxisDimensionality(
        ratio=ratio,
        coverage=coverage,
        d_axis=coverage * ratio,
        sigma_narrow_um=narrow_um,
        sigma_broad_um=broad_um,
        sigma_marginal_um=marg_um,
    )


def dimensionality(
    cuts: dict,
    *,
    masks: dict,
    pitch_um: float,
    smeared: bool,
    narrow_fit: WidthEstimate | None,
    kappa: dict,
    dark_occupancy: float,
) -> DimensionalityEstimate:
    """Total mode count as the product of the column and row estimates.

    `cuts` holds the "col" and "row" cuts, `masks` their masks and `kappa`
    their `saturation_factors`.  Darks fire each pixel in a fraction
    `dark_occupancy` of the frames, so an axis's profile sits on
    -ln(1 - dark_occupancy) times the other axis's pixel count.  On a
    `smeared` plane the row reuses the column's estimate and its row cut
    is not read.  `narrow_fit` is the column's, or None.
    """
    dark_mu = -math.log1p(-dark_occupancy)

    def along(axis, other, fit=None):
        return axis_dimensionality(cuts[axis], mask=masks[axis], pitch_um=pitch_um,
                                   kappa=kappa[axis], baseline=kappa[other].size * dark_mu,
                                   narrow_fit=fit)

    col = along("col", "row", narrow_fit)
    row = replace(col, substituted_from="col") if smeared else along("row", "col")
    return DimensionalityEstimate(d_total=col.d_axis * row.d_axis, axes={"col": col, "row": row})


# ---------------------------------------------------------------------------
# block bootstrap

def combine_cuts(parts: list[MapCut]) -> MapCut:
    """Pool block-level cuts as if the blocks were one contiguous stack."""
    if not parts:
        raise ParameterError("no cut blocks to combine")
    mode = parts[0].mode
    if any(p.mode is not mode for p in parts):
        raise ParameterError("cut blocks on different pair coordinates cannot be pooled")
    return MapCut(
        mode=mode,
        signal=sum(p.signal for p in parts),
        reference=sum(p.reference for p in parts),
        photons=sum(p.photons for p in parts),
        n_frames=sum(p.n_frames for p in parts),
        n_reference_pairs=sum(p.n_reference_pairs for p in parts),
    )


def make_blocks(n_frames: int, n_blocks: int) -> np.ndarray:
    """Edges 0 = e_0 < ... < e_n_blocks = n_frames of contiguous bootstrap blocks.

    `StackAccumulator(block_edges=...)` reads its map's central cuts on
    them.  Pooling the blocks of an axis with `combine_cuts` reproduces
    the whole map's cut exactly: each adjacent-frame reference pair that
    straddles an edge belongs to the later block.  A stack with fewer than
    two frames per block raises AnalysisError.
    """
    if n_blocks < 1:
        raise ParameterError(f"need at least 1 block, got {n_blocks}")
    if n_frames < 2 * n_blocks:
        raise AnalysisError(f"{n_frames} frames is too few for {n_blocks} blocks of >= 2")
    return np.linspace(0, n_frames, n_blocks + 1).astype(int)


@dataclass
class BootstrapResult:
    """Standard errors over the resamples, and how many resamples gave them."""

    errors: dict  # {key: standard error}
    n_ok: int
    n_failed: int  # resamples whose statistic raised AnalysisError/FitFailureError


def block_bootstrap(
    blocks: dict,
    statistic,
    *,
    n_boot: int = 100,
    seed: int = 0,
) -> BootstrapResult:
    """Standard errors of cut-derived statistics by block resampling.

    `blocks` maps each axis to its list of block cuts, at least 10, as
    `StackResult.blocks` holds them for an accumulator given `make_blocks`'
    edges.  Each resample draws blocks with replacement, pools their cuts
    (`combine_cuts`) and evaluates `statistic(cuts) -> dict[str, float]`,
    the point estimators on the pooled cuts; resamples where the statistic
    raises AnalysisError/FitFailureError are skipped and counted.
    """
    n_blocks = {ax: len(b) for ax, b in blocks.items()}
    bset = set(n_blocks.values())
    if len(bset) != 1:
        raise ParameterError(f"axes disagree on block count: {n_blocks}")
    nb = bset.pop()
    if nb < 10:
        raise ParameterError(f"need at least 10 blocks for block bootstrap, got {nb}")
    rng = np.random.default_rng(seed)
    samples: dict[str, list[float]] = {}
    n_failed = 0
    for _ in range(n_boot):
        pick = rng.integers(0, nb, size=nb)
        cuts = {ax: combine_cuts([blk[i] for i in pick]) for ax, blk in blocks.items()}
        try:
            stats = statistic(cuts)
        except (AnalysisError, FitFailureError):
            n_failed += 1
            continue
        for key, value in stats.items():
            samples.setdefault(key, []).append(float(value))
    out = {}
    for key, vals in samples.items():
        arr = np.asarray(vals)
        arr = arr[np.isfinite(arr)]
        out[key] = float(arr.std(ddof=1)) if arr.size >= 2 else float("nan")
    return BootstrapResult(out, n_boot - n_failed, n_failed)


# ---------------------------------------------------------------------------
# report container

@dataclass
class EprReport:
    """Complete analysis output for one simulated or measured run."""

    prediction: dict
    n_frames: dict
    occupancy: dict
    sigma_pos_um: float
    sigma_mom_um: float
    snr_pos: float
    snr_mom: float
    cond_var_x_um2: float
    cond_var_p_hbar2_per_um2: float
    epr_product_hbar2: float
    heisenberg_bound_hbar2: float
    epr_violated: bool
    snr_gate: float
    d_pos: float
    d_mom: float
    detail: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(_jsonable(self.as_dict()), **kwargs)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj
