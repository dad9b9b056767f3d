"""End-to-end simulate/analyze wiring on a reduced but honest acquisition."""

import csv
import hashlib
import importlib.util
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bpcam import Plane, RunConfig, StackReader, StackWriter, calibrate, inference, pipeline
from bpcam.correlate import RESIDUAL_TOL, Mode, StackAccumulator, subtract
from bpcam.errors import ConsistencyError, ParameterError
from bpcam.framestack import KIND_BINARY, KIND_RAW, PLANE_IMAGE
from bpcam.pipeline import _STALE_TMP, analyze, simulate
from bpcam.report import write_cross_sections, write_report

TINY = dict(roi_height=41, roi_width=41, n_frames=6, n_dark_frames=20,
            n_bootstrap=0, seed=3)


def test_small_run_recovers_the_physics(small_run):
    cfg, sim, products = small_run
    report = products.report
    pred = report.prediction
    # correlation peaks stand out and sit at the predicted widths
    assert report.snr_pos > 20 and report.snr_mom > 20
    assert report.sigma_pos_um == pytest.approx(pred["sigma_pos_um"], rel=0.25)
    assert report.sigma_mom_um == pytest.approx(pred["sigma_mom_um"], rel=0.25)
    assert report.epr_product_hbar2 < 1e-3
    assert report.epr_violated
    assert report.cond_var_x_um2 < pred["cond_var_x_um2"] * 2
    # detected photon occupancy rides on top of the 2% noise target
    for occ in report.occupancy.values():
        assert 0.025 < occ < 0.06
    assert report.n_frames == {"image": 600, "farfield": 600}


def test_small_run_mode_counts_land_on_the_closed_form(small_run):
    """d_pos and d_mom within 35 % of the predicted counts as detected on the
    101-pixel region."""
    _, _, products = small_run
    report = products.report
    for key in ("d_pos", "d_mom"):
        assert getattr(report, key) == pytest.approx(report.prediction[key], rel=0.35)


def test_report_records_each_planes_occupancy(small_run):
    """The share of frames in which the centre pixel and the busiest pixel fired."""
    cfg, sim, products = small_run
    h, w = cfg.roi
    for plane in ("image", "farfield"):
        fired = sum(bits.astype(np.int64) for bits in StackReader(sim.stack_paths[plane]))
        occ = products.report.detail[f"occupancy_{plane}"]
        assert set(occ) == {"centre", "max"}
        assert occ["max"] == fired.max() / cfg.n_frames
        assert occ["centre"] == fired[h // 2, w // 2] / cfg.n_frames
        assert occ["max"] >= occ["centre"] > 0.02


def test_small_run_maps_match_a_sequential_pass(small_run):
    """The planes are accumulated concurrently; each map must equal a plain
    single-threaded pass over that plane's stack."""
    cfg, sim, products = small_run
    for key, plane, mode in (("image_difference", "image", Mode.DIFFERENCE),
                             ("farfield_sum", "farfield", Mode.SUM)):
        acc = StackAccumulator(cfg.roi, mode, sparse_threshold=cfg.sparse_threshold)
        for bits in StackReader(sim.stack_paths[plane]):
            acc.add(bits)
        want = subtract(acc.finalize().map)
        np.testing.assert_array_equal(products.maps[key].values, want.values)


def test_simulate_writes_complete_runs(small_run):
    cfg, sim, products = small_run
    darks = StackReader(sim.dark_path)
    assert darks.header.kind == KIND_RAW
    assert darks.plane_name == "dark"
    assert len(darks) == cfg.n_dark_frames

    for plane, path in sim.stack_paths.items():
        rd = StackReader(path)
        assert rd.header.kind == KIND_BINARY
        assert rd.plane_name == plane
        assert len(rd) == cfg.n_frames
        assert rd.shape == cfg.roi
        assert rd.config_digest == cfg.sim_digest()

    with open(f"{sim.out_dir}/sim_summary.json") as fh:
        summary = json.load(fh)
    assert summary["sim_digest"] == cfg.sim_digest().hex()
    assert summary["threshold_k"] == pytest.approx(sim.threshold_k)
    assert summary["planes"]["image"]["n_frames"] == cfg.n_frames


def test_sim_summary_records_stage_times(small_run):
    cfg, sim, products = small_run
    with open(f"{sim.out_dir}/sim_summary.json") as fh:
        summary = json.load(fh)
    plane_s = [summary["planes"][name]["elapsed_s"] for name in ("image", "farfield")]
    assert summary["dark_s"] >= 0 and min(plane_s) >= 0
    # the planes run side by side, after the darks and the calibration
    assert summary["elapsed_s"] >= summary["dark_s"] + max(plane_s)
    cal = calibrate(StackReader(sim.dark_path))
    assert summary["n_unclipped_fallback"] == cal.n_unclipped_fallback


def test_sim_summary_names_files_relative_to_itself(tmp_path):
    simulate(RunConfig().replace(**TINY), tmp_path / "run")
    text = (tmp_path / "run" / "sim_summary.json").read_text()
    assert str(tmp_path) not in text
    summary = json.loads(text)
    for name in (summary["dark_path"], *summary["stack_paths"].values()):
        assert (tmp_path / "run" / name).is_file()


def test_simulation_is_bit_reproducible(tmp_path):
    cfg = RunConfig().replace(**TINY)
    a = simulate(cfg, tmp_path / "a")
    b = simulate(cfg, tmp_path / "b")
    for name in ("dark.bpcm", "image.bpcm", "farfield.bpcm"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    c = simulate(cfg.replace(seed=4), tmp_path / "c")
    assert (tmp_path / "a" / "image.bpcm").read_bytes() != \
        (tmp_path / "c" / "image.bpcm").read_bytes()


def test_simulate_single_plane(tmp_path):
    cfg = RunConfig().replace(**TINY)
    sim = simulate(cfg, tmp_path / "one", planes=(Plane.IMAGE,))
    assert set(sim.stack_paths) == {"image"}
    assert (tmp_path / "one" / "image.bpcm").exists()
    assert not (tmp_path / "one" / "farfield.bpcm").exists()
    # planes are simulated concurrently; a plane's stack must not depend on
    # which other planes ran beside it
    simulate(cfg, tmp_path / "both")
    assert (tmp_path / "one" / "image.bpcm").read_bytes() == \
        (tmp_path / "both" / "image.bpcm").read_bytes()


def test_single_plane_simulate_starts_no_process(tmp_path, monkeypatch):
    def no_processes(*args, **kwargs):
        raise AssertionError("a single-plane simulate must not start a process")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_processes)
    sim = simulate(RunConfig().replace(**TINY), tmp_path, planes=(Plane.IMAGE,))
    assert set(sim.stack_paths) == {"image"}


def test_two_plane_simulate_starts_one_worker_and_reaps_it(tmp_path, monkeypatch):
    started = []
    executor = pipeline.ProcessPoolExecutor

    def recording(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return executor(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", recording)
    sim = simulate(RunConfig().replace(**TINY), tmp_path)
    assert started == [1]
    assert set(sim.stack_paths) == {"image", "farfield"}
    assert multiprocessing.active_children() == []


def test_worker_plane_failure_is_raised_and_reaped(tmp_path):
    # the far-field plane runs in the worker; a directory where its stack
    # must go makes it fail there
    (tmp_path / "farfield.bpcm").mkdir()
    with pytest.raises(OSError, match="farfield"):
        simulate(RunConfig().replace(**TINY), tmp_path)
    assert multiprocessing.active_children() == []
    assert (tmp_path / "farfield.bpcm").is_dir()
    assert not list(tmp_path.glob("*.tmp"))


def test_script_without_main_guard_simulates_both_planes(tmp_path):
    # the workers are forked, so they do not re-run the calling script
    script = tmp_path / "no_guard.py"
    script.write_text(
        "import sys\n"
        "from bpcam import RunConfig\n"
        "from bpcam.pipeline import run\n"
        "from bpcam.report import write_report\n"
        f"sim, products = run(RunConfig().replace(**{TINY!r}), sys.argv[1])\n"
        "write_report(products.report, sys.argv[1])\n")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "script")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sim, products = pipeline.run(RunConfig().replace(**TINY), tmp_path / "inline")
    for name in ("dark.bpcm", "image.bpcm", "farfield.bpcm"):
        assert (tmp_path / "script" / name).read_bytes() == \
            (tmp_path / "inline" / name).read_bytes()
    with open(tmp_path / "script" / "report.json") as fh:
        assert json.load(fh)["detail"]["warnings"] == products.warnings


def test_analyze_forks_one_worker_and_reaps_it(small_run, monkeypatch):
    cfg, sim, products = small_run
    started = []
    executor = pipeline.ProcessPoolExecutor

    def recording(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return executor(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", recording)
    redone = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    assert started == [1]
    assert multiprocessing.active_children() == []
    # exact, and NaN-safe: a NaN figure must sit in the same place in both
    assert redone.report.to_json() == products.report.to_json()


def test_analyze_worker_failure_is_raised_and_reaped(small_run, monkeypatch):
    # the image plane is analysed in the forked worker, which inherits the patch
    cfg, sim, products = small_run
    finalize = StackAccumulator.finalize

    def failing(self):
        if self.mode is Mode.DIFFERENCE:
            raise ConsistencyError("image plane failed in the worker")
        return finalize(self)

    monkeypatch.setattr(StackAccumulator, "finalize", failing)
    with pytest.raises(ConsistencyError, match="image plane failed in the worker"):
        analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    assert multiprocessing.active_children() == []


def test_analyze_worker_parameter_error_reaches_the_caller(small_run, monkeypatch):
    # a ParameterError is a caller mistake: it is not turned into a warning
    cfg, sim, products = small_run
    fit_map_width = pipeline.fit_map_width

    def failing(sub, *args, **kwargs):
        if sub.mode is Mode.DIFFERENCE:
            raise ParameterError("image plane mistake in the worker")
        return fit_map_width(sub, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_map_width", failing)
    with pytest.raises(ParameterError, match="image plane mistake in the worker"):
        analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    assert multiprocessing.active_children() == []


def test_mode_count_reuses_the_inferred_variance_fit(small_run, tmp_path, monkeypatch):
    """The column's narrow fit for the mode count is the one that gives the
    width and the inferred variance: one `curve_fit` fewer per plane, and
    the same mode counts."""
    cfg, sim, products = small_run
    log = tmp_path / "curve_fit.log"
    curve_fit = inference.curve_fit

    def counted(*args, **kwargs):
        with open(log, "a") as fh:  # the forked worker appends to the same file
            fh.write(".")
        return curve_fit(*args, **kwargs)

    def fits_and_report():
        log.write_text("")
        redone = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
        return len(log.read_text()), redone.report

    monkeypatch.setattr(inference, "curve_fit", counted)
    n_reused, reused = fits_and_report()
    dimensionality = pipeline.dimensionality
    monkeypatch.setattr(pipeline, "dimensionality",
                        lambda cuts, narrow_fit, **kw: dimensionality(cuts, narrow_fit=None, **kw))
    n_fresh, fresh = fits_and_report()
    assert n_fresh - n_reused == 2
    assert np.isfinite([reused.d_pos, reused.d_mom]).all()
    assert (reused.d_pos, reused.d_mom) == (fresh.d_pos, fresh.d_mom)
    assert reused.as_dict() == products.report.as_dict()


def test_a_failed_map_fit_is_not_refitted(tmp_path, monkeypatch):
    """Six frames cannot support the image plane's map fit.  Its mode count
    needs that fit's narrow width, and a refit of the same cut would fail
    the same way, so none is made: no `curve_fit` call repeats the data of
    another in the same process, where the refit made one call more for
    each plane whose map fit failed."""
    cfg = RunConfig().replace(**TINY)
    sim = simulate(cfg, tmp_path / "run")
    log = tmp_path / "curve_fit.log"
    curve_fit = inference.curve_fit

    def counted(model, jac, x, y, *args):
        data = np.asarray(x).tobytes() + np.asarray(y).tobytes()
        with open(log, "a") as fh:  # the forked worker appends to the same file
            fh.write(f"{os.getpid()} {hashlib.sha256(data).hexdigest()}\n")
        return curve_fit(model, jac, x, y, *args)

    monkeypatch.setattr(inference, "curve_fit", counted)
    products = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    calls = log.read_text().splitlines()
    assert products.warnings[0].startswith("sigma_pos fit:")
    assert "image dimensionality: no narrow width, the sigma_pos fit failed" in products.warnings
    assert len(set(calls)) == len(calls)


def test_fit_records_carry_their_evaluation_counts(small_run, tmp_path):
    cfg, sim, products = small_run
    write_report(products.report, tmp_path)
    detail = json.loads((tmp_path / "report.json").read_text())["detail"]
    # one record per narrow fit, a free-offset Gaussian of four parameters; the
    # conditional variances come from the same fits and have no record of their own
    n_params = {"sigma_pos_fit": 4, "sigma_mom_fit": 4}
    assert {key for key, rec in detail.items() if "nfev" in rec} == set(n_params)
    for key, n in n_params.items():
        assert 1 <= detail[key]["nfev"] <= inference.MAX_NFEV_PER_PARAM * n


def test_variances_come_from_the_width_fits(small_run):
    """Var(x1|x2) = (sigma_pos / M)^2 and Var(p1|p2) = (sigma_mom k / f)^2: one fit each."""
    cfg, sim, products = small_run
    report = products.report
    k = cfg.source().wavenumber
    assert report.cond_var_x_um2 == pytest.approx(
        (report.sigma_pos_um / cfg.magnification) ** 2, rel=1e-12)
    assert report.cond_var_p_hbar2_per_um2 == pytest.approx(
        (report.sigma_mom_um * k / cfg.effective_focal) ** 2, rel=1e-12)


def test_report_records_the_largest_spectral_residual(tmp_path):
    """0 where every frame took the sparse route; under the tolerance on the spectral one."""
    cfg = RunConfig().replace(**TINY)
    sim = simulate(cfg, tmp_path)
    sparse = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    spectral = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"],
                       cfg.replace(sparse_threshold=0))
    for name in ("image", "farfield"):
        record = sparse.report.detail[f"spectral_residual_{name}"]
        assert record == {"max": 0.0, "tolerance": RESIDUAL_TOL}
        record = spectral.report.detail[f"spectral_residual_{name}"]
        assert record["tolerance"] == RESIDUAL_TOL == 0.25
        assert 0.0 <= record["max"] < 0.25


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    """perfbench/tracing.py swaps wrappers in for names that `pipeline`,
    `correlate` and `inference` must keep; a traced run gives the same report."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bpcam_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # enough frames for the bootstrap's 10 blocks, so every wrapped step runs
    cfg = RunConfig().replace(**{**TINY, "n_frames": 20, "n_blocks": 10, "n_bootstrap": 2})
    tracer = tracing.Tracer()
    with tracer.installed():
        sim = simulate(cfg, tmp_path / "traced")
        traced = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    assert tracer.calls["correlate.add"] > 0
    assert tracer.calls["inference.make_blocks"] > 0
    assert multiprocessing.active_children() == []
    plain = simulate(cfg, tmp_path / "plain")
    for name in ("dark.bpcm", "image.bpcm", "farfield.bpcm"):
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()
    untraced = analyze(plain.stack_paths["image"], plain.stack_paths["farfield"], cfg)
    assert traced.report.to_json() == untraced.report.to_json()


def test_plane_order_does_not_change_the_stacks(tmp_path):
    cfg = RunConfig().replace(**TINY)
    simulate(cfg, tmp_path / "default")
    simulate(cfg, tmp_path / "swapped", planes=(Plane.FAR_FIELD, Plane.IMAGE))
    for name in ("dark.bpcm", "image.bpcm", "farfield.bpcm"):
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "swapped" / name).read_bytes()


def test_simulate_removes_stale_temporary_stacks(tmp_path):
    cfg = RunConfig().replace(**TINY)
    out = tmp_path / "run"
    out.mkdir()
    # what a writer killed mid-stack leaves behind, beside unrelated files
    stale = [out / "dark.bpcm.4242.tmp", out / "image.bpcm.17.tmp"]
    kept = [out / "image.bpcm.x.tmp", out / "notes.bpcm.17.tmp"]
    for path in stale + kept:
        path.write_bytes(b"BPCM partial")
    simulate(cfg, out, planes=(Plane.IMAGE,))
    assert not any(path.exists() for path in stale)
    assert all(path.exists() for path in kept)
    simulate(cfg, tmp_path / "clean", planes=(Plane.IMAGE,))
    for name in ("dark.bpcm", "image.bpcm"):
        assert (out / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
    assert len(StackReader(out / "image.bpcm")) == cfg.n_frames


def test_a_simulate_killed_mid_plane_leaves_no_earlier_report(tmp_path, monkeypatch):
    cfg = RunConfig().replace(**TINY)
    out = tmp_path / "run"
    sim, products = pipeline.run(cfg, out)
    write_report(products.report, out)
    write_cross_sections(products.maps, out, cfg.pixel_pitch)
    kept = out / "notes_cross_section.txt"
    kept.write_text("not a run file")
    earlier = {path.name for path in out.iterdir()}
    assert {"sim_summary.json", "report.json", "report.txt",
            "image_difference_cross_section.csv"} <= earlier

    class KilledWriter(StackWriter):
        def write(self, frame):
            if self.header.plane == PLANE_IMAGE and self.n_frames == 3:
                raise KeyboardInterrupt
            super().write(frame)

    monkeypatch.setattr(pipeline, "StackWriter", KilledWriter)
    with pytest.raises(KeyboardInterrupt):
        simulate(cfg, out, planes=(Plane.IMAGE,))
    left = {path.name for path in out.iterdir()}
    assert left == {"dark.bpcm", "image.bpcm", "farfield.bpcm", kept.name}
    # the killed plane's stack is the earlier one, which no report now describes
    assert len(StackReader(out / "image.bpcm")) == cfg.n_frames


@pytest.mark.parametrize("name", ["dark.bpcm", "image.bpcm", "farfield.bpcm"])
def test_stale_sweep_matches_the_writers_temporary_files(tmp_path, name):
    # the sweep's pattern and the writer's temporary name must not drift apart
    wr = StackWriter(tmp_path / name, kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3),
                     seed=0, config_digest=b"\x00" * 32)
    assert _STALE_TMP.fullmatch(Path(wr.tmp_path).name)
    wr.discard()
    assert list(tmp_path.iterdir()) == []


def test_analyze_rejects_mismatched_stacks(tmp_path):
    cfg = RunConfig().replace(**TINY)
    sim = simulate(cfg, tmp_path)
    image = sim.stack_paths["image"]
    farfield = sim.stack_paths["farfield"]

    with pytest.raises(ParameterError, match="plane"):
        analyze(farfield, image, cfg)  # swapped
    with pytest.raises(ParameterError, match="binary"):
        analyze(sim.dark_path, farfield, cfg)  # raw frames

    other = cfg.replace(seed=99)
    with pytest.raises(ParameterError, match="digest"):
        analyze(image, farfield, other)
    # explicit opt-out lets the mismatch through
    products = analyze(image, farfield, other, check_digest=False)
    assert products.report.n_frames["image"] == cfg.n_frames

    wrong_shape = cfg.replace(roi_height=31)
    with pytest.raises(ParameterError, match="shape"):
        analyze(image, farfield, wrong_shape, check_digest=False)


def test_analyze_small_stacks_degrade_to_warnings(tmp_path):
    """Six frames cannot support fits or an SNR; the analysis must still
    return a report with the failures recorded instead of raising."""
    cfg = RunConfig().replace(**TINY)
    sim = simulate(cfg, tmp_path)
    products = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    report = products.report
    assert products.warnings  # plenty at this scale
    assert not report.epr_violated  # never claim a violation without a peak
    assert report.detail["warnings"] == products.warnings


def test_analyze_warnings_are_listed_step_by_step_image_first(tmp_path):
    """The planes are analysed in two processes; their warnings still come
    step by step (map fit, SNR, blocks, dimensionality, bootstrap), the
    image plane's before the far field's."""
    cfg = RunConfig().replace(**TINY)
    sim = simulate(cfg, tmp_path)
    products = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    labels = [text.split(":")[0] for text in products.report.detail["warnings"]]
    assert labels == ["sigma_pos fit",
                      "image peak snr", "farfield peak snr",
                      "image blocks", "farfield blocks",
                      "image dimensionality", "farfield dimensionality"]


def test_analyze_non_square_region(tmp_path):
    """41 rows by 61 columns: the maps span 2H - 1 by 2W - 1 bins, and the
    cross-section runs along the 2W - 1 column offsets."""
    cfg = RunConfig().replace(**{**TINY, "roi_width": 61})
    sim = simulate(cfg, tmp_path)
    products = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    assert products.warnings  # six frames cannot support the fits
    assert not any(text.startswith("frame counts differ") for text in products.warnings)
    for sub in products.maps.values():
        assert sub.values.shape == sub.mask.shape == (81, 121)
    paths = write_cross_sections(products.maps, tmp_path / "csv", cfg.pixel_pitch)
    for path in paths:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "coordinate_px"
        assert len(rows) == 1 + 121


def _truncated_copy(path, out, n_frames):
    """The first `n_frames` frames of a stack, under the same header fields."""
    rd = StackReader(path)
    with StackWriter(out, kind=rd.kind, plane=rd.header.plane, shape=rd.shape,
                     seed=rd.header.seed, config_digest=rd.config_digest) as wr:
        for frame in itertools.islice(rd, n_frames):
            wr.write(frame)
    return out


@pytest.mark.parametrize("short", ["image", "farfield"])
def test_bootstrap_needs_blocks_on_both_planes(small_run, tmp_path, short):
    cfg, sim, products = small_run
    paths = dict(sim.stack_paths)
    # one frame short of two per block: that plane gets no blocks
    paths[short] = _truncated_copy(paths[short], tmp_path / f"{short}.bpcm",
                                   2 * cfg.n_blocks - 1)
    cfg = cfg.replace(n_bootstrap=5)
    redone = analyze(paths["image"], paths["farfield"], cfg)
    assert redone.report.errors == {}
    counts = {name: cfg.n_frames for name in ("image", "farfield")} | {short: 2 * cfg.n_blocks - 1}
    assert redone.warnings[0] == (f"frame counts differ: image {counts['image']}, "
                                  f"farfield {counts['farfield']}")
    assert redone.report.detail["warnings"] == redone.warnings
    labels = [text.split(":")[0] for text in redone.warnings]
    assert f"{short} blocks" in labels
    assert not [label for label in labels if label.endswith("bootstrap")]
    both = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"], cfg)
    assert set(both.report.errors) >= {"d_pos", "d_mom", "epr_product_hbar2"}


def test_bootstrap_errors_present_only_when_requested(small_run, tmp_path):
    cfg, sim, products = small_run
    assert products.report.errors == {}
    redone = analyze(sim.stack_paths["image"], sim.stack_paths["farfield"],
                     cfg.replace(n_bootstrap=20))
    errs = redone.report.errors
    for key in ("sigma_pos_um", "sigma_mom_um", "cond_var_x_um2",
                "cond_var_p_hbar2_per_um2", "d_pos", "d_mom",
                "epr_product_hbar2"):
        assert errs[key] > 0.0
    # each plane records how many resamples gave its errors
    for name in ("image", "farfield"):
        counts = redone.report.detail[f"bootstrap_{name}"]
        assert counts["resamples_ok"] + counts["resamples_failed"] == 20
        assert counts["resamples_ok"] >= 2
    assert "bootstrap_image" not in products.report.detail


def test_smear_artifact_is_masked_for_fits(small_run):
    cfg, sim, products = small_run
    sub = products.maps["image_difference"]
    h, w = sub.roi
    assert sub.mask[h - 1, w - 1]
    assert sub.mask[h - 2, w - 1] and sub.mask[h, w - 1]  # smear rows
    assert products.maps["farfield_sum"].mask.sum() == 0
