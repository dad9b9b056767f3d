"""Each check of the benchmark passes on a real round and fails on a corrupted copy,
and a round that crashes makes the run incorrect.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from round import run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from bpcam import RunConfig  # noqa: E402

SPEC = WORKLOADS["sparse"]
#: the sparse workload, small enough to simulate and analyse in seconds
CONFIG = RunConfig(**{**SPEC["overrides"], "n_frames": 400, "n_dark_frames": 200,
                      "n_bootstrap": 20, "seed": 3})
CONFIG_DICT = dataclasses.asdict(CONFIG)


def failures(work, config=None) -> dict:
    config = config or CONFIG_DICT
    return {name: err for name, err in checks.check_round(work, SPEC, config) if err}


@pytest.fixture(scope="module")
def good_round(tmp_path_factory):
    work = tmp_path_factory.mktemp("round")
    record = {"ready": 0.0, **run_round(CONFIG, work)}
    (work / "round.json").write_text(json.dumps(record))
    return work


@pytest.fixture
def copy(good_round, tmp_path):
    work = tmp_path / "round"
    shutil.copytree(good_round, work)
    return work


def edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def poke(path: Path, offset: int, fn) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset] = fn(raw[offset])
    path.write_bytes(bytes(raw))


def test_a_real_round_passes_every_check(good_round):
    results = checks.check_round(good_round, SPEC, CONFIG_DICT)
    assert len(results) == 17
    assert failures(good_round) == {}


def test_a_flipped_stack_bit_fails_the_popcount(copy):
    poke(copy / "out" / "image.bpcm", checks.HEADER.size + 500, lambda b: b ^ 0x10)
    assert "popcounts:image" in failures(copy)


def test_a_wrong_header_count_fails_the_parser(copy):
    poke(copy / "out" / "farfield.bpcm", 16, lambda b: b - 1)
    assert "stack:farfield" in failures(copy)


def test_set_padding_bits_fail_the_parser(copy):
    row_bytes = (CONFIG.roi_width + 7) // 8
    poke(copy / "out" / "image.bpcm", checks.HEADER.size + row_bytes - 1, lambda b: b | 1)
    assert set(failures(copy)) == {"stack:image"}


def test_another_digest_fails_the_parser(copy):
    config = {**CONFIG_DICT, "em_gain": 999.0}
    assert "stack:dark" in failures(copy, config)


@pytest.mark.parametrize("where, check", [("edge", "map_total"), ("centre", "map_bins")])
def test_one_changed_map_bin_fails(copy, where, check):
    path = copy / "maps.npz"
    maps = dict(np.load(path))
    values = maps["image_difference_values"]
    h, w = CONFIG.roi
    row, col = (3, 5) if where == "edge" else (h - 1, w)
    values[row, col] += 1.0 / CONFIG.n_frames  # one more pair
    np.savez(path, **maps)
    assert f"{check}:image_difference" in failures(copy)


@pytest.mark.parametrize("key, factor, check", [
    ("sigma_pos_um", 1.3, "widths"),
    ("snr_mom", 1.001, "report"),
    ("d_mom", 1e-3, "mode_counts"),
])
def test_a_wrong_report_figure_fails(copy, key, factor, check):
    edit_json(copy / "out" / "report.json", lambda r: r.__setitem__(key, r[key] * factor))
    assert check in failures(copy)


def test_a_flipped_flag_fails_the_report(copy):
    edit_json(copy / "out" / "report.json", lambda r: r.__setitem__("epr_violated", False))
    assert {"report", "epr"} <= set(failures(copy))


def test_a_missing_bootstrap_error_fails(copy):
    edit_json(copy / "out" / "report.json", lambda r: r["errors"].pop("d_pos"))
    assert "bootstrap_errors" in failures(copy)


def test_a_large_epr_product_fails(copy):
    def large(r):
        r["cond_var_x_um2"] *= 100
        r["epr_product_hbar2"] *= 100
    edit_json(copy / "out" / "report.json", large)
    assert "epr" in failures(copy)


@pytest.mark.parametrize("key, change", [
    ("sigma_noise", lambda v: v * 1.02),
    ("threshold_k", lambda v: v + 0.05),
    ("dark_centre", lambda v: v + 0.5),
])
def test_a_dark_calibration_off_the_camera_model_fails(copy, key, change):
    edit_json(copy / "out" / "sim_summary.json", lambda s: s.__setitem__(key, change(s[key])))
    assert "dark_threshold" in failures(copy)


def test_a_wrong_pair_count_fails(copy):
    def more(s):
        s["planes"]["image"]["n_pairs_generated"] = int(s["planes"]["image"]["n_pairs_generated"] * 1.05)
    edit_json(copy / "out" / "sim_summary.json", more)
    assert "pairs" in failures(copy)


def test_a_wrong_route_fails(copy):
    spec = {**SPEC, "route": "spectral"}
    results = checks.check_round(copy, spec, CONFIG_DICT)
    assert {n for n, e in results if e} == {"popcounts:image", "popcounts:farfield"}


def test_rerun_frames_must_match_bit_for_bit(copy):
    per = checks.frame_bytes(checks.KIND_BINARY, *CONFIG.roi)
    picked = {"image": [0, 7, 399]}
    stack = (copy / "out" / "image.bpcm").read_bytes()
    frames = b"".join(stack[checks.HEADER.size + i * per:][:per] for i in picked["image"])
    rerun = copy / "image.rerun.bpcm"
    rerun.write_bytes(stack[:checks.HEADER.size] + frames)
    assert checks.check_rerun(copy, CONFIG_DICT, picked) == [("rerun:image", None)]
    poke(rerun, checks.HEADER.size + per + 3, lambda b: b ^ 1)
    assert checks.check_rerun(copy, CONFIG_DICT, picked)[0][1] is not None


def test_fingerprints_tell_rounds_apart(good_round, copy):
    assert checks.fingerprint(copy) == checks.fingerprint(good_round)
    edit_json(copy / "out" / "report.json", lambda r: r.__setitem__("d_pos", r["d_pos"] + 1))
    assert checks.fingerprint(copy) != checks.fingerprint(good_round)


def run_of(tmp_path, monkeypatch, good_round, outcomes) -> dict:
    """The result of a run whose rounds crash (False) or copy the good round (True)."""
    outcomes = list(outcomes)

    def child(argv, deadline):
        if not outcomes[0]:
            return 1, "Traceback (most recent call last):\nRuntimeError: boom"
        shutil.copytree(good_round, argv[argv.index("--dir") + 1], dirs_exist_ok=True)
        return 0, ""

    monkeypatch.setattr(run, "child", child)
    r = run.Run(argparse.Namespace(workload="sparse", seed=3, seconds=0.0, trace=0))
    r.work = tmp_path / "runs"
    while outcomes:
        r.round(False)
        outcomes.pop(0)
    r.check()
    return r.result()


def test_rounds_that_all_pass_make_a_correct_run(tmp_path, monkeypatch, good_round):
    result = run_of(tmp_path, monkeypatch, good_round, [True, True])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["wall_s"]["value"] > 0


def test_rounds_that_all_crash_make_an_incorrect_run(tmp_path, monkeypatch, good_round):
    result = run_of(tmp_path, monkeypatch, good_round, [False, False])
    assert result == {"correct": False, "attempted": 6, "failed": 6, "metrics": {}}


def test_one_crashed_round_makes_the_run_incorrect(tmp_path, monkeypatch, good_round):
    result = run_of(tmp_path, monkeypatch, good_round, [False, True])
    assert not result["correct"]
    assert result["failed"] == len(run.CALLS)
    assert result["metrics"]  # the round that finished is still measured
