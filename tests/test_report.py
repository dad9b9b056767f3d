"""Report rendering and cross-section CSV output."""

import csv
import json

import numpy as np
import pytest

from bpcam import EprReport, Mode
from bpcam.correlate import SubtractedMap, pair_axis
from bpcam import report as report_module
from bpcam.framestack import AtomicFile
from bpcam.inference import central_cross_section
from bpcam.report import (
    format_report,
    write_cross_section_csv,
    write_cross_sections,
    write_report,
)


def make_report(**overrides):
    base = dict(
        prediction={
            "sigma_pos_um": 28.34,
            "sigma_mom_um": 17.12,
            "cond_var_x_um2": 128.5,
            "cond_var_p_hbar2_per_um2": 2.295e-6,
            "epr_product_hbar2": 2.949e-4,
            "mode_count": 3388.9,
            "d_pos": 2896.2,
            "d_mom": 2951.0,
        },
        n_frames={"image": 100, "farfield": 100},
        occupancy={"image": 0.039, "farfield": 0.039},
        sigma_pos_um=28.4,
        sigma_mom_um=17.2,
        snr_pos=1300.0,
        snr_mom=2200.0,
        cond_var_x_um2=124.0,
        cond_var_p_hbar2_per_um2=2.25e-6,
        epr_product_hbar2=2.79e-4,
        heisenberg_bound_hbar2=0.25,
        epr_violated=True,
        snr_gate=5.0,
        d_pos=2743.0,
        d_mom=2623.0,
        detail={"warnings": ["sigma_mom fit: degenerate"]},
        errors={"sigma_pos_um": 0.3},
    )
    base.update(overrides)
    return EprReport(**base)


def test_format_report_contains_the_verdict_and_rows():
    text = format_report(make_report())
    assert "EPR violation: YES" in text
    assert "sigma_pos [um]" in text
    assert "28.4 +/- 0.3" in text
    assert "note: sigma_mom fit: degenerate" in text
    assert "occupancy: image 0.039 (100 frames)" in text

    calm = format_report(make_report(epr_violated=False, detail={}))
    assert "EPR violation: no" in calm
    assert "note:" not in calm


def test_format_report_predicts_the_mode_counts_as_detected():
    """The "predicted" mode counts are `predict`'s d_pos and d_mom, not the
    binning-free mode_count; a saved report without them prints "-"."""
    def mode_rows(report):
        return [line.split() for line in format_report(report).splitlines()
                if line.startswith("mode count")]

    assert mode_rows(make_report()) == [
        ["mode", "count", "(position)", "2896.2", "2743"],
        ["mode", "count", "(momentum)", "2951", "2623"],
    ]
    old = json.loads(make_report().to_json())
    del old["prediction"]["d_pos"], old["prediction"]["d_mom"]
    assert [row[3] for row in mode_rows(old)] == ["-", "-"]


def test_format_report_accepts_plain_dicts():
    report = make_report()
    assert format_report(json.loads(report.to_json())) == format_report(report)


def test_write_report_creates_both_files(tmp_path):
    paths = write_report(make_report(), tmp_path / "out")
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["epr_violated"] is True
    text = (tmp_path / "out" / "report.txt").read_text()
    assert "EPR violation: YES" in text
    assert set(paths) == {"json", "txt"}


def sample_map(mode, h=5, w=5):
    shape = (2 * h - 1, 2 * w - 1)
    values = np.arange(shape[0] * shape[1], dtype=float).reshape(shape)
    mask = np.zeros(shape, dtype=bool)
    if mode is Mode.DIFFERENCE:
        mask[h - 1, w - 1] = True
    return SubtractedMap(mode, values, mask, (h, w))


def test_central_cross_section_row_choice():
    # non-square: the axis runs along the 2W - 1 columns, the row comes from H
    h, w = 5, 7
    diff = sample_map(Mode.DIFFERENCE, h=h, w=w)
    axis, values, mask = central_cross_section(diff)
    assert axis.tolist() == list(range(-(w - 1), w))
    np.testing.assert_array_equal(values, diff.values[h - 1])
    assert mask[w - 1]  # the masked centre bin travels with the row
    summ = sample_map(Mode.SUM, h=h, w=w)
    axis_s, values_s, _ = central_cross_section(summ)
    np.testing.assert_array_equal(axis_s, pair_axis(w, Mode.SUM))
    assert axis_s.size == 2 * w - 1
    np.testing.assert_array_equal(values_s, summ.values[h - 1])


@pytest.mark.parametrize("h", [4, 5])
def test_central_cross_section_reads_row_h_minus_1_of_a_sum_map(h):
    """Two pixels placed symmetrically about the optical axis sum to row H - 1,
    for even H too."""
    summ = sample_map(Mode.SUM, h=h, w=6)
    _, values, _ = central_cross_section(summ)
    np.testing.assert_array_equal(values, summ.values[h - 1])


def test_cross_section_csv_round_trip(tmp_path):
    maps = {
        "image_difference": sample_map(Mode.DIFFERENCE),
        "farfield_sum": sample_map(Mode.SUM),
    }
    paths = write_cross_sections(maps, tmp_path, pitch_um=16.0)
    assert sorted(p.split("/")[-1] for p in paths) == [
        "farfield_sum_cross_section.csv",
        "image_difference_cross_section.csv",
    ]
    with open(paths[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["coordinate_px", "coordinate_um", "excess_per_frame", "masked"]
    assert len(rows) == 1 + 9  # header + one row per column bin
    px = [int(r[0]) for r in rows[1:]]
    assert px == list(range(-4, 5))
    assert [float(r[1]) for r in rows[1:]] == [16.0 * v for v in px]
    # exact float round trip via repr
    centre_row = rows[1 + 4]
    assert float(centre_row[2]) == sample_map(Mode.DIFFERENCE).values[4][4]
    assert centre_row[3] == "1"


def test_atomic_file_replaces_only_on_a_clean_close(tmp_path):
    path = tmp_path / "run.json"
    with AtomicFile(path) as fh:
        fh.write("first")
        assert not path.exists()
    with pytest.raises(RuntimeError, match="killed"):
        with AtomicFile(path) as fh:
            fh.write("sec")
            raise RuntimeError("killed part-way")
    assert path.read_text() == "first"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_failed_report_write_keeps_the_earlier_files(tmp_path, monkeypatch):
    write_report(make_report(), tmp_path)
    before = {name: (tmp_path / name).read_text() for name in ("report.json", "report.txt")}

    def failing(report):
        raise RuntimeError("killed while formatting")

    monkeypatch.setattr(report_module, "format_report", failing)
    with pytest.raises(RuntimeError, match="killed"):
        write_report(make_report(epr_violated=False), tmp_path)
    # report.json was complete and replaced; report.txt kept its earlier text
    assert json.loads((tmp_path / "report.json").read_text())["epr_violated"] is False
    assert (tmp_path / "report.txt").read_text() == before["report.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.txt"]


class _FailsAfter:
    """A pitch whose product raises after `n` rows: a writer killed part-way."""

    def __init__(self, n):
        self.n = n

    def __rmul__(self, other):
        self.n -= 1
        if self.n < 0:
            raise RuntimeError("killed mid-file")
        return other * 16.0


def test_failed_cross_section_write_keeps_the_earlier_csv(tmp_path):
    path = tmp_path / "image_difference_cross_section.csv"
    write_cross_section_csv(sample_map(Mode.DIFFERENCE), path, pitch_um=16.0)
    before = path.read_text()
    with pytest.raises(RuntimeError, match="killed"):
        write_cross_section_csv(sample_map(Mode.DIFFERENCE, w=7), path, pitch_um=_FailsAfter(3))
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
