"""Human-readable and CSV output for analysis results."""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path

from .correlate import SubtractedMap
from .framestack import AtomicFile
from .inference import central_cross_section


def _fmt(value, unc=None) -> str:
    if value is None:
        return "-"
    try:
        v = float(value)
    except (TypeError, ValueError):
        return str(value)
    if not math.isfinite(v):
        return str(v)
    text = f"{v:.5g}"
    if unc is not None:
        try:
            u = float(unc)
        except (TypeError, ValueError):
            u = float("nan")
        if math.isfinite(u):
            text += f" +/- {u:.2g}"
    return text


def format_report(report) -> str:
    """Aligned predicted-vs-measured table for a report (or its dict form)."""
    d = report.as_dict() if hasattr(report, "as_dict") else dict(report)
    pred = d.get("prediction") or {}
    err = d.get("errors") or {}
    rows = [
        ("sigma_pos [um]", pred.get("sigma_pos_um"), d.get("sigma_pos_um"),
         err.get("sigma_pos_um")),
        ("sigma_mom [um]", pred.get("sigma_mom_um"), d.get("sigma_mom_um"),
         err.get("sigma_mom_um")),
        ("Var(x1|x2) [um^2]", pred.get("cond_var_x_um2"), d.get("cond_var_x_um2"),
         err.get("cond_var_x_um2")),
        ("Var(p1|p2) [hbar^2/um^2]", pred.get("cond_var_p_hbar2_per_um2"),
         d.get("cond_var_p_hbar2_per_um2"), err.get("cond_var_p_hbar2_per_um2")),
        ("EPR product [hbar^2]", pred.get("epr_product_hbar2"),
         d.get("epr_product_hbar2"), err.get("epr_product_hbar2")),
        ("mode count (position)", pred.get("d_pos"), d.get("d_pos"), err.get("d_pos")),
        ("mode count (momentum)", pred.get("d_mom"), d.get("d_mom"), err.get("d_mom")),
        ("peak SNR (image)", None, d.get("snr_pos"), None),
        ("peak SNR (farfield)", None, d.get("snr_mom"), None),
    ]
    header = ("quantity", "predicted", "measured")
    lines = [f"{header[0]:<28}{header[1]:>14}  {header[2]}"]
    lines.append("-" * 64)
    for name, p, m, u in rows:
        lines.append(f"{name:<28}{_fmt(p):>14}  {_fmt(m, u)}")
    lines.append("-" * 64)
    bound = d.get("heisenberg_bound_hbar2")
    gate = d.get("snr_gate")
    verdict = "YES" if d.get("epr_violated") else "no"
    lines.append(
        f"EPR violation: {verdict}  "
        f"(separability bound {_fmt(bound)} hbar^2, peak SNR gate >= {_fmt(gate)})"
    )
    occ = d.get("occupancy") or {}
    nfr = d.get("n_frames") or {}
    if occ:
        lines.append(
            "occupancy: "
            + ", ".join(f"{k} {_fmt(v)} ({nfr.get(k, '?')} frames)" for k, v in occ.items())
        )
    warn = (d.get("detail") or {}).get("warnings") or []
    for wmsg in warn:
        lines.append(f"note: {wmsg}")
    return "\n".join(lines)


def write_report(report, out_dir) -> dict:
    """Write an `EprReport` to report.json and report.txt; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    txt_path = out / "report.txt"
    with AtomicFile(json_path, encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    with AtomicFile(txt_path, encoding="utf-8") as fh:
        fh.write(format_report(report))
        fh.write("\n")
    return {"json": str(json_path), "txt": str(txt_path)}


def write_cross_section_csv(sub: SubtractedMap, path, pitch_um: float) -> str:
    """One map's central cross-section, the row its width fit reads, as CSV."""
    with AtomicFile(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coordinate_px", "coordinate_um", "excess_per_frame", "masked"])
        axis, values, mask = central_cross_section(sub)
        for x, v, m in zip(axis, values, mask):
            writer.writerow([int(x), float(x) * pitch_um, repr(float(v)), int(bool(m))])
    return os.fspath(path)


def write_cross_sections(maps: dict, out_dir, pitch_um: float) -> list:
    """CSV cross-sections for every named subtracted map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, sub in maps.items():
        paths.append(write_cross_section_csv(sub, out / f"{name}_cross_section.csv", pitch_um))
    return paths
