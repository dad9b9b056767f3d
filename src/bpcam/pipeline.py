"""End-to-end runs: simulate stacks to disk, then analyse them into a report.

`simulate` writes one raw dark stack plus one thresholded stack per optical
plane, deriving the photon-counting threshold from the darks unless the
configuration pins it.  `analyze` streams the thresholded stacks once
through the correlation accumulators and produces an `EprReport` with the
fitted correlation widths, conditional variances, mode counts, significance
numbers and bootstrap errors.

Every random draw comes from a substream keyed by (seed, plane code, frame
index), so stacks are bit-reproducible and any frame can be regenerated in
isolation.  That makes the planes independent after the dark calibration:
`simulate` runs the first plane in the caller and the others in one forked
worker process, and `analyze` runs one accumulator thread per plane, without
changing a byte of output.  The fork needs a POSIX system.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import re
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .correlate import (
    Mode,
    StackAccumulator,
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
    StackReader,
    StackWriter,
)
from .inference import (
    EprReport,
    axis_dimensionality,
    block_bootstrap,
    combine_joints,
    dimensionality,
    epr_product,
    fit_joint_width,
    fit_map_width,
    inferred_variance,
    make_blocks,
)
from .model import HEISENBERG_PRODUCT, Plane, predict
from .sampler import generate_frame_events, substream

_PLANE_CODE = {Plane.IMAGE: PLANE_IMAGE, Plane.FAR_FIELD: PLANE_FARFIELD}
_PLANE_FILE = {Plane.IMAGE: "image.bpcm", Plane.FAR_FIELD: "farfield.bpcm"}
_NO_IMPACTS = np.empty((0, 2))
#: the temporary file a `StackWriter` killed mid-stack leaves beside its stack
_STALE_TMP = re.compile(r"(dark|image|farfield)\.bpcm\.\d+\.tmp")


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
            "out_dir": self.out_dir,
            "dark_path": self.dark_path,
            "stack_paths": self.stack_paths,
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


def simulate(config: RunConfig, out_dir, planes=(Plane.IMAGE, Plane.FAR_FIELD)) -> SimulateResult:
    """Generate dark + photon stacks under `config`, writing to `out_dir`.

    After the darks and the calibration, the caller simulates the first
    plane and one worker process the others.  The worker is forked from the
    caller, so it starts with the imports done and needs a POSIX fork; the
    caller should run no other threads while it forks.  A single-plane call
    starts no process.  The stacks do not depend on which planes run
    together or where.
    Temporary stack files left in `out_dir` by a killed earlier run are
    deleted first.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.tmp"):
        if _STALE_TMP.fullmatch(stale.name):
            stale.unlink()
    digest = config.sim_digest()
    planes = [Plane(p) for p in planes]

    # a process, not a thread: the per-frame work holds the GIL; it forks at
    # the first submit, once the calibration is done
    with (ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork"))
          if len(planes) > 1 else contextlib.nullcontext()) as worker:
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
        if config.threshold_k is not None:
            k = float(config.threshold_k)
        else:
            k = calibrate_flux_equivalence(darks, config.target_occupancy, calibration=cal)
        dark_s = time.perf_counter() - t_dark

        futures = {plane.value: worker.submit(_simulate_plane, config, str(out), digest, cal, k,
                                              plane)
                   for plane in planes[1:]}
        stack_paths: dict = {}
        plane_stats: dict = {}
        for plane in planes[:1]:
            stack_paths[plane.value], plane_stats[plane.value] = _simulate_plane(
                config, str(out), digest, cal, k, plane)
        for name, fut in futures.items():
            stack_paths[name], plane_stats[name] = fut.result()

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
    with open(out / "sim_summary.json", "w", encoding="utf-8") as fh:
        json.dump(result.summary(), fh, indent=2)
    return result


def _simulate_plane(config: RunConfig, out_dir: str, digest: bytes, calibration: Calibration,
                    k: float, plane: Plane) -> tuple[str, PlaneSimStats]:
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
            agg.total_ones += int(np.count_nonzero(bits.bits))
            agg.n_pixels += bits.bits.size
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
    n_bootstrap: int | None = None,
    snr_gate: float | None = None,
    mask_artifacts: bool = True,
) -> AnalysisProducts:
    """Correlate both stacks and extract the entanglement figures of merit.

    The EPR-violation flag requires the product of conditional variances to
    beat 1/4 *and* both correlation peaks to clear the significance gate;
    runs without a detectable peak (for example heavily attenuated ones)
    therefore never flag, no matter what the noise fits return.
    """
    t0 = time.perf_counter()
    gate = config.snr_gate if snr_gate is None else float(snr_gate)
    n_boot = config.n_bootstrap if n_bootstrap is None else int(n_bootstrap)
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

    source = config.source()
    pitch = config.pixel_pitch
    h, w = config.roi
    warnings: list[str] = []

    def _try(label, fn, fallback=None):
        try:
            return fn()
        except (AnalysisError, FitFailureError, ParameterError) as exc:
            warnings.append(f"{label}: {exc}")
            return fallback

    # each plane feeds exactly one pair coordinate: correlated positions
    # peak in the difference map, anti-correlated momenta in the sum map
    plane_modes = {Plane.IMAGE: (Mode.DIFFERENCE,), Plane.FAR_FIELD: (Mode.SUM,)}

    def accumulate_plane(plane):
        acc = StackAccumulator(config.roi, sparse_threshold=config.sparse_threshold,
                               modes=plane_modes[plane])
        for bits in readers[plane]:
            acc.add(bits)
        return acc.finalize()

    # one thread per plane: the transforms and large ufuncs release the GIL
    with ThreadPoolExecutor(max_workers=len(readers)) as pool:
        results = dict(zip(readers, pool.map(accumulate_plane, readers)))

    res_ip = results[Plane.IMAGE]
    res_ff = results[Plane.FAR_FIELD]
    smeared = config.smear_prob_image > 0.0

    maps = {
        "image_difference": subtract(res_ip.difference, mask_center=mask_artifacts,
                                     mask_smear_rows=mask_artifacts and smeared),
        "farfield_sum": subtract(res_ff.sum_map),
    }

    # correlation widths from the central map cross-sections
    west_pos = _try("sigma_pos fit",
                    lambda: fit_map_width(maps["image_difference"], pitch, window_px=40))
    west_mom = _try("sigma_mom fit",
                    lambda: fit_map_width(maps["farfield_sum"], pitch, window_px=40))
    sigma_pos = west_pos.sigma_um if west_pos else float("nan")
    sigma_mom = west_mom.sigma_um if west_mom else float("nan")

    snr_pos = _try("image peak snr", lambda: peak_snr(maps["image_difference"]))
    snr_mom = _try("farfield peak snr", lambda: peak_snr(maps["farfield_sum"]))
    snr_pos_val = snr_pos.value if snr_pos else float("nan")
    snr_mom_val = snr_mom.value if snr_mom else float("nan")

    # joint distributions per transverse axis, built once from the bootstrap
    # blocks (pooling drops only the n_blocks - 1 boundary reference pairs)
    blocks_ip = _try("image blocks", lambda: make_blocks(res_ip.marginals, config.n_blocks))
    blocks_ff = _try("farfield blocks", lambda: make_blocks(res_ff.marginals, config.n_blocks))
    if blocks_ip is not None:
        joints_ip = {ax: combine_joints(blk) for ax, blk in blocks_ip.items()}
    else:
        joints_ip = {ax: ms.joint() for ax, ms in res_ip.marginals.items()}
    if blocks_ff is not None:
        joints_ff = {ax: combine_joints(blk) for ax, blk in blocks_ff.items()}
    else:
        joints_ff = {ax: ms.joint() for ax, ms in res_ff.marginals.items()}

    scale_ip = config.optics(Plane.IMAGE).detector_to_source_scale(source)
    scale_ff = config.optics(Plane.FAR_FIELD).detector_to_source_scale(source)
    # Column-axis joints stay clean under vertical smear: a daughter keeps
    # its parent's column, so parent/daughter duplicates land only on the
    # always-masked zero-difference bin, and daughter/partner pairs
    # replicate the genuine column statistics (amplitude only).  Row-axis
    # joints are genuinely contaminated and get substituted below.
    cv_x = _try("inferred variance x", lambda: inferred_variance(
        joints_ip["col"], Mode.DIFFERENCE, pitch_um=pitch, scale=scale_ip))
    cv_p = _try("inferred variance p", lambda: inferred_variance(
        joints_ff["col"], Mode.SUM, pitch_um=pitch, scale=scale_ff))
    var_x = cv_x.variance if cv_x else float("inf")
    var_p = cv_p.variance if cv_p else float("inf")
    product = epr_product(var_x, var_p)
    violated = bool(
        np.isfinite(product)
        and product < HEISENBERG_PRODUCT
        and np.isfinite(snr_pos_val) and snr_pos_val >= gate
        and np.isfinite(snr_mom_val) and snr_mom_val >= gate
    )

    dims_ip = _try("image dimensionality", lambda: dimensionality(
        joints_ip, pitch_um=pitch, extent_px={"col": w, "row": h},
        narrow=Mode.DIFFERENCE,
        substitute={"row": "col"} if smeared else None))
    dims_ff = _try("farfield dimensionality", lambda: dimensionality(
        joints_ff, pitch_um=pitch, extent_px={"col": w, "row": h},
        narrow=Mode.SUM))
    d_pos = dims_ip.d_total if dims_ip else float("nan")
    d_mom = dims_ff.d_total if dims_ff else float("nan")

    errors: dict = {}
    if n_boot > 0 and blocks_ip is not None and blocks_ff is not None:
        errors.update(_bootstrap_errors(
            blocks_ip, blocks_ff, config, n_boot, scale_ip, scale_ff, smeared, warnings))
        se_x = errors.get("cond_var_x_um2")
        se_p = errors.get("cond_var_p_hbar2_per_um2")
        if se_x is not None and se_p is not None and np.isfinite(var_x) and np.isfinite(var_p):
            errors["epr_product_hbar2"] = float(
                np.hypot(var_x * se_p, var_p * se_x)
            )

    prediction = predict(source, config.optics(Plane.IMAGE), config.optics(Plane.FAR_FIELD))
    report = EprReport(
        prediction=prediction.as_dict(),
        n_frames={"image": res_ip.n_frames, "farfield": res_ff.n_frames},
        occupancy={
            "image": res_ip.total_ones / (res_ip.n_frames * h * w),
            "farfield": res_ff.total_ones / (res_ff.n_frames * h * w),
        },
        sigma_pos_um=float(sigma_pos),
        sigma_mom_um=float(sigma_mom),
        snr_pos=float(snr_pos_val),
        snr_mom=float(snr_mom_val),
        cond_var_x_um2=float(var_x),
        cond_var_p_hbar2_per_um2=float(var_p),
        epr_product_hbar2=float(product),
        heisenberg_bound_hbar2=HEISENBERG_PRODUCT,
        epr_violated=violated,
        snr_gate=gate,
        d_pos=float(d_pos),
        d_mom=float(d_mom),
        detail=_detail_dict(west_pos, west_mom, snr_pos, snr_mom, cv_x, cv_p,
                            dims_ip, dims_ff, warnings),
        errors=errors,
    )
    return AnalysisProducts(
        report=report,
        maps=maps,
        warnings=warnings,
        elapsed_s=time.perf_counter() - t0,
    )


def _detail_dict(west_pos, west_mom, snr_pos, snr_mom, cv_x, cv_p, dims_ip, dims_ff, warnings):
    detail: dict = {"warnings": list(warnings)}
    if west_pos:
        detail["sigma_pos_fit"] = {"sigma_px": west_pos.sigma_px, **west_pos.fit.as_dict()}
    if west_mom:
        detail["sigma_mom_fit"] = {"sigma_px": west_mom.sigma_px, **west_mom.fit.as_dict()}
    if snr_pos:
        detail["snr_pos"] = asdict(snr_pos)
    if snr_mom:
        detail["snr_mom"] = asdict(snr_mom)
    if cv_x:
        detail["cond_var_x"] = {
            "variance_det_um2": cv_x.variance_det_um2,
            "sigma_px": cv_x.width.sigma_px,
            **cv_x.width.fit.as_dict(),
        }
    if cv_p:
        detail["cond_var_p"] = {
            "variance_det_um2": cv_p.variance_det_um2,
            "sigma_px": cv_p.width.sigma_px,
            **cv_p.width.fit.as_dict(),
        }
    for name, dims in (("image", dims_ip), ("farfield", dims_ff)):
        if dims:
            detail[f"dimensionality_{name}"] = {
                ax: asdict(est) for ax, est in dims.axes.items()
            }
    return detail


def _bootstrap_errors(blocks_ip, blocks_ff, config, n_boot, scale_ip, scale_ff,
                      smeared, warnings) -> dict:
    pitch = config.pixel_pitch
    h, w = config.roi

    def image_stat(joints):
        out = {}
        width = fit_joint_width(joints["col"], Mode.DIFFERENCE, pitch, window_px=40)
        out["sigma_pos_um"] = width.sigma_um
        out["cond_var_x_um2"] = width.sigma_um ** 2 * scale_ip ** 2
        ax_col = axis_dimensionality(joints["col"], pitch_um=pitch, extent_px=w,
                                     narrow=Mode.DIFFERENCE, narrow_fit=width)
        if smeared:
            out["d_pos"] = ax_col.d_axis ** 2
        else:
            ax_row = axis_dimensionality(joints["row"], pitch_um=pitch, extent_px=h,
                                         narrow=Mode.DIFFERENCE)
            out["d_pos"] = ax_col.d_axis * ax_row.d_axis
        return out

    def farfield_stat(joints):
        out = {}
        width = fit_joint_width(joints["col"], Mode.SUM, pitch, window_px=40)
        out["sigma_mom_um"] = width.sigma_um
        out["cond_var_p_hbar2_per_um2"] = width.sigma_um ** 2 * scale_ff ** 2
        ax_col = axis_dimensionality(joints["col"], pitch_um=pitch, extent_px=w,
                                     narrow=Mode.SUM, narrow_fit=width)
        ax_row = axis_dimensionality(joints["row"], pitch_um=pitch, extent_px=h,
                                     narrow=Mode.SUM)
        out["d_mom"] = ax_col.d_axis * ax_row.d_axis
        return out

    errors: dict = {}
    for label, blocks, stat in (
        ("image", blocks_ip, image_stat),
        ("farfield", blocks_ff, farfield_stat),
    ):
        try:
            errors.update(block_bootstrap(
                blocks, stat, n_boot=n_boot, seed=config.seed + 1,
            ))
        except (AnalysisError, FitFailureError, ParameterError) as exc:
            warnings.append(f"{label} bootstrap: {exc}")
    return errors


def run(config: RunConfig, out_dir, **analyze_kwargs):
    """simulate + analyze in one call; returns (SimulateResult, AnalysisProducts)."""
    sim = simulate(config, out_dir)
    products = analyze(
        sim.stack_paths[Plane.IMAGE.value],
        sim.stack_paths[Plane.FAR_FIELD.value],
        config,
        **analyze_kwargs,
    )
    return sim, products
