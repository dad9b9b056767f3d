"""End-to-end runs: simulate stacks to disk, then analyse them into a report.

`simulate` writes one raw dark stack plus one thresholded stack per optical
plane, calibrating the photon-counting threshold so that the darks fire at
the configured target occupancy.  `analyze` streams the thresholded stacks
once through the correlation accumulators and produces an `EprReport` with
the fitted correlation widths, conditional variances, mode counts,
significance numbers and bootstrap errors.  Each plane's narrow width and
conditional variance come from one fit to its map's central row, and every
bootstrap resample refits the row pooled from resampled blocks.

Every random draw comes from a substream keyed by (seed, plane code, frame
index), so stacks are bit-reproducible and any frame can be regenerated in
isolation.  That makes the planes independent after the dark calibration,
and the two planes' figures meet only in the EPR product.  So both
functions split by plane, without changing a byte of output: `simulate`
runs the first plane in the caller and the others in one forked worker
process, and `analyze` runs the far field's whole analysis in the caller
and the image plane's in one forked worker.  The fork needs a POSIX system,
and the caller should run no other threads while it forks.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .correlate import (
    RESIDUAL_TOL,
    Mode,
    StackAccumulator,
    SubtractedMap,
    central_cuts,
    peak_snr,
    subtract,
)
from .emccd import Calibration, calibrate, calibrate_flux_equivalence, expose, threshold
from .errors import AnalysisError, FitFailureError, ParameterError
from .framestack import (
    KIND_BINARY,
    KIND_RAW,
    PLANE_DARK,
    PLANE_FARFIELD,
    PLANE_IMAGE,
    AtomicFile,
    StackReader,
    StackWriter,
)
from .inference import (
    EprReport,
    block_bootstrap,
    combine_cuts,
    dimensionality,
    epr_product,
    fit_map_width,
    inferred_variance,
    make_blocks,
    saturation_factors,
)
from .model import HEISENBERG_PRODUCT, Plane, predict
from .sampler import generate_frame_events, substream

_PLANE_CODE = {Plane.IMAGE: PLANE_IMAGE, Plane.FAR_FIELD: PLANE_FARFIELD}
_PLANE_FILE = {Plane.IMAGE: "image.bpcm", Plane.FAR_FIELD: "farfield.bpcm"}
_NO_IMPACTS = np.empty((0, 2))
#: the temporary file a `StackWriter` killed mid-stack leaves beside its stack
_STALE_TMP = re.compile(r"(dark|image|farfield)\.bpcm\.\d+\.tmp")
#: the files that describe a finished run: the summary, the reports and the cross-sections
_RUN_FILES = re.compile(r"sim_summary\.json|report\.(json|txt)|.+_cross_section\.csv")


@dataclass
class PlaneSimStats:
    n_frames: int = 0
    n_pairs_generated: int = 0
    n_photons_surviving: int = 0
    n_pairs_surviving: int = 0
    n_impacts_in_roi: int = 0
    n_detected: int = 0
    n_smeared: int = 0
    total_ones: int = 0
    n_pixels: int = 0
    elapsed_s: float = 0.0  # timed in the process that ran the plane

    @property
    def mean_occupancy(self) -> float:
        return self.total_ones / self.n_pixels if self.n_pixels else 0.0

    def as_dict(self) -> dict:
        d = asdict(self)
        d["mean_occupancy"] = self.mean_occupancy
        return d


@dataclass
class SimulateResult:
    config: RunConfig
    out_dir: str
    dark_path: str
    stack_paths: dict
    threshold_k: float
    sigma_noise: float
    dark_centre: float
    n_unclipped_fallback: int
    plane_stats: dict
    dark_s: float  # darks plus calibration, in the caller
    elapsed_s: float

    def summary(self) -> dict:
        return {
            # names relative to the summary's directory, so it does not depend on where it is
            "dark_path": Path(self.dark_path).name,
            "stack_paths": {name: Path(p).name for name, p in self.stack_paths.items()},
            "threshold_k": self.threshold_k,
            "sigma_noise": self.sigma_noise,
            "dark_centre": self.dark_centre,
            "n_unclipped_fallback": self.n_unclipped_fallback,
            "planes": {name: st.as_dict() for name, st in self.plane_stats.items()},
            "dark_s": self.dark_s,
            "elapsed_s": self.elapsed_s,
            "config": self.config.as_dict(),
            "config_digest": self.config.digest().hex(),
            "sim_digest": self.config.sim_digest().hex(),
        }


def _over_planes(fn, planes, *args) -> dict:
    """{plane: fn(plane, *args)}: the first plane in the caller, the rest in one worker.

    The rest are submitted before the caller starts on the first, so the
    worker forks before the caller grows and does not inherit its arrays.
    A process, not a thread: the per-frame work, the sparse pair counting
    and the fits hold the GIL.  The fork starts it with the caller's imports
    done; it needs a POSIX fork, and the caller should run no other threads
    while it forks.  A single plane starts no process.
    """
    first, rest = planes[0], planes[1:]
    if not rest:
        return {first: fn(first, *args)}
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("fork")) as worker:
        futures = {plane: worker.submit(fn, plane, *args) for plane in rest}
        results = {first: fn(first, *args)}
        return results | {plane: fut.result() for plane, fut in futures.items()}


def simulate(config: RunConfig, out_dir, planes=(Plane.IMAGE, Plane.FAR_FIELD)) -> SimulateResult:
    """Generate dark + photon stacks under `config`, writing to `out_dir`.

    After the darks and the calibration, the caller simulates the first
    plane and one worker process the others (`_over_planes`).  A
    single-plane call starts no process.  The stacks do not depend on which
    planes run together or where.
    Before any stack is written, the temporary stack files of a killed
    earlier run and the earlier run's summary, reports and cross-sections
    are deleted from `out_dir`, so a run killed part-way leaves no report
    beside its new stacks.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():
        if _STALE_TMP.fullmatch(stale.name) or _RUN_FILES.fullmatch(stale.name):
            stale.unlink()
    digest = config.sim_digest()

    t_dark = time.perf_counter()
    dark_cam = config.camera(None)
    dark_path = out / "dark.bpcm"
    with StackWriter(dark_path, kind=KIND_RAW, plane=PLANE_DARK, shape=config.roi,
                     seed=config.seed, config_digest=digest) as wr:
        for i in range(config.n_dark_frames):
            rng = substream(config.seed, PLANE_DARK, i)
            frame, _ = expose(_NO_IMPACTS, dark_cam, rng)
            wr.write(frame)
    darks = StackReader(dark_path)
    cal = calibrate(darks)
    k = calibrate_flux_equivalence(darks, config.target_occupancy, calibration=cal)
    dark_s = time.perf_counter() - t_dark

    done = _over_planes(_simulate_plane, [Plane(p) for p in planes], config, str(out), digest,
                        cal, k)
    stack_paths = {plane.value: path for plane, (path, _) in done.items()}
    plane_stats = {plane.value: stats for plane, (_, stats) in done.items()}

    result = SimulateResult(
        config=config,
        out_dir=str(out),
        dark_path=str(dark_path),
        stack_paths=stack_paths,
        threshold_k=float(k),
        sigma_noise=cal.sigma_noise,
        dark_centre=cal.centre,
        n_unclipped_fallback=cal.n_unclipped_fallback,
        plane_stats=plane_stats,
        dark_s=dark_s,
        elapsed_s=time.perf_counter() - t0,
    )
    with AtomicFile(out / "sim_summary.json", encoding="utf-8") as fh:
        json.dump(result.summary(), fh, indent=2)
    return result


def _simulate_plane(plane: Plane, config: RunConfig, out_dir: str, digest: bytes,
                    calibration: Calibration, k: float) -> tuple[str, PlaneSimStats]:
    """Expose and threshold every frame of one plane into its stack file."""
    t0 = time.perf_counter()
    code = _PLANE_CODE[plane]
    source = config.source()
    cam = config.camera(plane)
    optics = config.optics(plane)
    flux = config.flux()
    path = Path(out_dir) / _PLANE_FILE[plane]
    agg = PlaneSimStats()
    with StackWriter(path, kind=KIND_BINARY, plane=code, shape=config.roi,
                     seed=config.seed, config_digest=digest) as wr:
        for i in range(config.n_frames):
            rng = substream(config.seed, code, i)
            events = generate_frame_events(source, optics, flux, rng)
            frame, st = expose(events.impacts, cam, rng)
            bits = threshold(frame, calibration, k)
            wr.write(bits)
            agg.n_frames += 1
            agg.n_pairs_generated += events.n_pairs_generated
            agg.n_photons_surviving += events.n_photons_surviving
            agg.n_pairs_surviving += events.n_pairs_surviving
            agg.n_impacts_in_roi += st.n_in_roi
            agg.n_detected += st.n_detected
            agg.n_smeared += st.n_smeared
            agg.total_ones += int(np.count_nonzero(bits))
            agg.n_pixels += bits.size
    agg.elapsed_s = time.perf_counter() - t0
    return str(path), agg


# ---------------------------------------------------------------------------
# analysis

@dataclass
class AnalysisProducts:
    report: EprReport
    maps: dict  # {"image_difference": SubtractedMap, ...}
    warnings: list
    elapsed_s: float


# Each plane feeds exactly one pair coordinate: correlated positions peak in
# the difference map, anti-correlated momenta in the sum map.  The names are
# those of the plane's figures in the warnings, the report and its errors.
_PLANE_MODE = {Plane.IMAGE: Mode.DIFFERENCE, Plane.FAR_FIELD: Mode.SUM}
_PLANE_NAMES = {Plane.IMAGE: ("pos", "cond_var_x_um2"),
                Plane.FAR_FIELD: ("mom", "cond_var_p_hbar2_per_um2")}
#: the steps of a plane's analysis, in the order the report lists their warnings and records
_STEPS = ("occupancy", "residual", "map fit", "peak snr", "blocks", "dimensionality",
          "bootstrap")


@dataclass
class _PlaneAnalysis:
    """One plane's map, fits and bootstrap errors; `analyze` combines two."""

    plane: Plane
    map: SubtractedMap
    n_frames: int
    total_ones: int
    sigma_um: float  # from the map's central row; nan where a step failed
    snr: float
    cond_var: float  # the inferred variance, from the same fit; inf where it failed
    d: float  # the mode count
    has_blocks: bool
    errors: dict  # bootstrap standard errors
    records: dict  # {step: (report detail key, fit record)} for the steps that succeeded
    warnings: dict  # {step: text} for the steps that failed


def _analyze_plane(plane: Plane, paths: dict, config: RunConfig) -> _PlaneAnalysis:
    """Accumulate one plane's stack, fit its figures and bootstrap their errors.

    A step whose estimate fails (AnalysisError, FitFailureError) becomes a
    warning, and the steps after it go on; a ParameterError is a caller
    mistake and propagates.  The bootstrap runs whenever this plane has
    blocks; `analyze` keeps its errors and resample counts only when the
    other plane has blocks too.
    """
    mode = _PLANE_MODE[plane]
    coord, var_key = _PLANE_NAMES[plane]
    name = plane.value
    pitch = config.pixel_pitch
    # Vertical charge smear contaminates only the image plane's row axis: a
    # daughter keeps its parent's column.  Parent/daughter duplicates land on
    # the dr = +/-1 bins of the map's central column, which `subtract` masks,
    # and daughter/partner pairs shift the peak in dr only, so the central
    # row keeps the genuine column statistics.  The row axis reuses the
    # column's estimate.
    smeared = plane is Plane.IMAGE and config.smear_prob_image > 0.0
    records: dict = {}
    warnings: dict = {}

    def _try(step, label, fn):
        try:
            return fn()
        except (AnalysisError, FitFailureError) as exc:
            warnings[step] = f"{label}: {exc}"
            return None

    # the pass cuts the map's central row and column into the bootstrap
    # blocks; a stack too short for them is one block
    reader = StackReader(paths[plane])
    edges = _try("blocks", f"{name} blocks", lambda: make_blocks(len(reader), config.n_blocks))
    acc = StackAccumulator(config.roi, mode, sparse_threshold=config.sparse_threshold,
                           block_edges=edges)
    for bits in reader:
        acc.add(bits)
    res = acc.finalize()
    sub = subtract(res.map, mask_smear_rows=smeared)
    # the share of frames in which the pixel on the optical axis and the busiest one fired
    h, w = config.roi
    records["occupancy"] = (f"occupancy_{name}", {
        "centre": float(res.fired[h // 2, w // 2] / res.n_frames),
        "max": float(res.fired.max() / res.n_frames),
    })
    records["residual"] = (f"spectral_residual_{name}",
                           {"max": res.max_residual, "tolerance": RESIDUAL_TOL})
    # the pooled blocks are the map's central cuts, and `subtract` masks them
    cuts = {ax: combine_cuts(blk) for ax, blk in res.blocks.items()}
    masks = central_cuts(sub.mask, sub.roi)
    scale = config.optics(plane).detector_to_source_scale(config.source())
    # the singles profile is corrected with the whole stack's pixel counts
    kappa = saturation_factors(res.fired, res.n_frames)

    # the point figures and every bootstrap resample come from these estimators
    def fit_width(cuts):
        return fit_map_width(cuts["col"], masks["col"], pitch)

    def fit_dimensionality(cuts, width):
        # the column's narrow fit is the width's own, made with the same arguments
        return dimensionality(cuts, masks=masks, pitch_um=pitch, smeared=smeared,
                              narrow_fit=width, kappa=kappa,
                              dark_occupancy=config.target_occupancy)

    def statistic(cuts):
        width = fit_width(cuts)
        return {f"sigma_{coord}_um": width.sigma_um, var_key: inferred_variance(width, scale),
                f"d_{coord}": fit_dimensionality(cuts, width).d_total}

    width = _try("map fit", f"sigma_{coord} fit", lambda: fit_width(cuts))
    if width:
        records["map fit"] = (f"sigma_{coord}_fit",
                              {"sigma_px": width.fit.sigma, **asdict(width.fit)})
    snr = _try("peak snr", f"{name} peak snr", lambda: peak_snr(sub))
    if snr:
        records["peak snr"] = (f"snr_{coord}", asdict(snr))
    dims = _try("dimensionality", f"{name} dimensionality",
                lambda: fit_dimensionality(cuts, width))
    if dims:
        records["dimensionality"] = (f"dimensionality_{name}",
                                     {ax: asdict(est) for ax, est in dims.axes.items()})
    errors = {}
    if config.n_bootstrap > 0 and edges is not None:
        resampled = block_bootstrap(res.blocks, statistic, n_boot=config.n_bootstrap,
                                    seed=config.seed + 1)
        errors = resampled.errors
        records["bootstrap"] = (f"bootstrap_{name}", {"resamples_ok": resampled.n_ok,
                                                      "resamples_failed": resampled.n_failed})
    nan = float("nan")
    return _PlaneAnalysis(plane, sub, res.n_frames, res.total_ones,
                          width.sigma_um if width else nan, snr.value if snr else nan,
                          inferred_variance(width, scale) if width else float("inf"),
                          dims.d_total if dims else nan,
                          edges is not None, errors, records, warnings)


def _open_checked(path, expected_plane: str, config: RunConfig) -> StackReader:
    rd = StackReader(path)
    if rd.header.kind != KIND_BINARY:
        raise ParameterError(
            f"{path}: analyze expects thresholded (binary) stacks, got {rd.header.kind_name}"
        )
    if rd.plane_name != expected_plane:
        raise ParameterError(f"{path}: stack is plane {rd.plane_name!r}, expected {expected_plane!r}")
    if rd.shape != config.roi:
        raise ParameterError(f"{path}: stack shape {rd.shape} != configured roi {config.roi}")
    if len(rd) < 2:
        raise ParameterError(f"{path}: need at least 2 frames, found {len(rd)}")
    return rd


def analyze(
    image_path,
    farfield_path,
    config: RunConfig,
    *,
    check_digest: bool = True,
) -> AnalysisProducts:
    """Correlate both stacks and extract the entanglement figures of merit.

    The EPR-violation flag requires the product of conditional variances to
    beat 1/4 *and* both correlation peaks to clear the significance gate;
    runs without a detectable peak (for example heavily attenuated ones)
    therefore never flag, no matter what the noise fits return.

    Once the stacks are checked, one worker process analyses the image
    plane, accumulation to bootstrap, while the caller analyses the far
    field; the caller then combines the two.  The worker is forked, so it
    needs a POSIX fork, and the caller should run no other threads while
    `analyze` forks.
    """
    t0 = time.perf_counter()
    readers = {
        Plane.IMAGE: _open_checked(image_path, "image", config),
        Plane.FAR_FIELD: _open_checked(farfield_path, "farfield", config),
    }
    d_ip = readers[Plane.IMAGE].config_digest
    d_ff = readers[Plane.FAR_FIELD].config_digest
    if d_ip != d_ff:
        raise ParameterError("image and farfield stacks carry different configuration digests")
    if check_digest and d_ip != config.sim_digest():
        raise ParameterError(
            "stack configuration digest does not match the supplied configuration "
            "(use check_digest=False / --ignore-digest to analyse anyway)"
        )

    done = _over_planes(_analyze_plane, (Plane.FAR_FIELD, Plane.IMAGE),
                        {plane: rd.path for plane, rd in readers.items()}, config)
    ip, ff = planes = (done[Plane.IMAGE], done[Plane.FAR_FIELD])

    var_x, var_p = ip.cond_var, ff.cond_var
    product = epr_product(var_x, var_p)
    violated = bool(
        np.isfinite(product)
        and product < HEISENBERG_PRODUCT
        and all(np.isfinite(p.snr) and p.snr >= config.snr_gate for p in planes)
    )

    # the errors need both planes' bootstraps, and so both planes' blocks
    boot = ip.has_blocks and ff.has_blocks
    errors = {**ip.errors, **ff.errors} if boot else {}
    se_x = errors.get("cond_var_x_um2")
    se_p = errors.get("cond_var_p_hbar2_per_um2")
    if se_x is not None and se_p is not None and np.isfinite(var_x) and np.isfinite(var_p):
        errors["epr_product_hbar2"] = float(np.hypot(var_x * se_p, var_p * se_x))
    # step by step, the image plane first
    steps = [step for step in _STEPS if boot or step != "bootstrap"]
    warnings = [p.warnings[step] for step in steps for p in planes if step in p.warnings]
    if ip.n_frames != ff.n_frames:
        warnings.insert(0, f"frame counts differ: image {ip.n_frames}, farfield {ff.n_frames}")
    detail = {"warnings": list(warnings)}
    detail.update(p.records[step] for step in steps for p in planes if step in p.records)

    h, w = config.roi
    prediction = predict(config.source(), config.optics(Plane.IMAGE),
                         config.optics(Plane.FAR_FIELD))
    report = EprReport(
        prediction=prediction.as_dict(),
        n_frames={"image": ip.n_frames, "farfield": ff.n_frames},
        occupancy={
            "image": ip.total_ones / (ip.n_frames * h * w),
            "farfield": ff.total_ones / (ff.n_frames * h * w),
        },
        sigma_pos_um=float(ip.sigma_um),
        sigma_mom_um=float(ff.sigma_um),
        snr_pos=float(ip.snr),
        snr_mom=float(ff.snr),
        cond_var_x_um2=float(var_x),
        cond_var_p_hbar2_per_um2=float(var_p),
        epr_product_hbar2=float(product),
        heisenberg_bound_hbar2=HEISENBERG_PRODUCT,
        epr_violated=violated,
        snr_gate=config.snr_gate,
        d_pos=float(ip.d),
        d_mom=float(ff.d),
        detail=detail,
        errors=errors,
    )
    return AnalysisProducts(
        report=report,
        maps={f"{p.plane.value}_{_PLANE_MODE[p.plane].value}": p.map for p in planes},
        warnings=warnings,
        elapsed_s=time.perf_counter() - t0,
    )


def run(config: RunConfig, out_dir):
    """simulate + analyze in one call; returns (SimulateResult, AnalysisProducts)."""
    sim = simulate(config, out_dir)
    paths = sim.stack_paths
    return sim, analyze(paths[Plane.IMAGE.value], paths[Plane.FAR_FIELD.value], config)
