"""Checks of one round's outputs, computed apart from the program.

The stacks are read with this module's own `.bpcm` parser, the pair-count
maps are recomputed bin by bin from the frames, and the figures are held
against closed forms worked out here from the config.  `check_round` runs
every check and returns one (name, error) pair per check, error None when
it passed; each pair is one operation of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from statistics import NormalDist

import numpy as np

# .bpcm layout: magic, version, kind, plane, width, height, frame_count,
# seed, config digest; then the frames
HEADER = struct.Struct("<4sHBBIIIQ32s")
KIND_RAW, KIND_BINARY = 0, 1
PLANE_CODE = {"dark": 0, "image": 1, "farfield": 2}
RAW_SCALE = 256.0
#: config keys that do not change frame content, left out of the sim digest
ANALYSIS_KEYS = ("n_frames", "n_bootstrap", "n_blocks", "sparse_threshold", "snr_gate")
EPS = np.finfo(np.float64).eps
#: z-bin width of the threshold inversion (a 20,000-bin histogram over [-20, 80))
Z_BIN = 100.0 / 20000
BOOTSTRAP_KEYS = ("sigma_pos_um", "cond_var_x_um2", "d_pos", "sigma_mom_um",
                  "cond_var_p_hbar2_per_um2", "d_mom", "epr_product_hbar2")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sim_digest(config: dict) -> bytes:
    data = {k: v for k, v in config.items() if k not in ANALYSIS_KEYS}
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).digest()


def frame_bytes(kind: int, height: int, width: int) -> int:
    return height * width * 4 if kind == KIND_RAW else height * ((width + 7) // 8)


def check_stack(path, *, kind: int, plane: str, n_frames: int, config: dict) -> None:
    """Header fields, payload size and (binary stacks) zero padding bits."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER.size)
    require(len(raw) == HEADER.size, f"{path}: short header")
    magic, version, k, p, w, h, count, seed, digest = HEADER.unpack(raw)
    require(magic == b"BPCM" and version == 1, f"{path}: magic {magic!r} version {version}")
    require(k == kind and p == PLANE_CODE[plane], f"{path}: kind {k} plane {p}")
    require((h, w) == (config["roi_height"], config["roi_width"]), f"{path}: shape {h}x{w}")
    require(count == n_frames, f"{path}: header counts {count} frames, expected {n_frames}")
    require(seed == config["seed"], f"{path}: seed {seed}")
    require(digest == sim_digest(config), f"{path}: sim digest differs")
    size = os.path.getsize(path)
    expected = HEADER.size + count * frame_bytes(k, h, w)
    require(size == expected, f"{path}: {size} bytes, expected {expected}")
    if k == KIND_BINARY and w % 8:
        rows = np.memmap(path, dtype=np.uint8, mode="r", offset=HEADER.size,
                         shape=(count, h, (w + 7) // 8))
        pad = (1 << (8 - w % 8)) - 1
        require(not np.any(rows[:, :, -1] & pad), f"{path}: padding bits set")


def read_bits(path, config: dict) -> np.ndarray:
    """(N, H, W) bool frames of a binary stack."""
    h, w = config["roi_height"], config["roi_width"]
    with open(path, "rb") as fh:
        fh.seek(HEADER.size)
        payload = np.frombuffer(fh.read(), dtype=np.uint8)
    rows = payload.reshape(-1, h, (w + 7) // 8)
    return np.unpackbits(rows, axis=2, count=w).astype(bool)


def check_popcounts(ones: np.ndarray, plane: str, summary: dict, route: str,
                    sparse_threshold: int) -> None:
    """Fired-pixel total as in sim_summary.json; every frame on the workload's route."""
    total = summary["planes"][plane]["total_ones"]
    require(int(ones.sum()) == total, f"{plane}: {int(ones.sum())} fired pixels, summary {total}")
    on_route = ones <= sparse_threshold if route == "sparse" else ones > sparse_threshold
    require(bool(on_route.all()),
            f"{plane}: {int((~on_route).sum())} frames off the {route} route")


def overlap(x: np.ndarray, y: np.ndarray, dr: int, dc: int) -> int:
    """sum over frames and pixels of x[r, c] & y[r + dr, c + dc]."""
    h, w = x.shape[-2:]
    xs = x[..., max(0, -dr):h - max(0, dr), max(0, -dc):w - max(0, dc)]
    ys = y[..., max(0, dr):h - max(0, -dr), max(0, dc):w - max(0, -dc)]
    return int(np.count_nonzero(xs & ys))


def excess(signal: int, reference: int, n: int) -> tuple[float, float]:
    """signal/N - reference/(N-1) and the rounding bound of its float form."""
    a, b = signal / n, reference / (n - 1)
    return a - b, 64 * EPS * (a + b + 1.0)


def check_map_total(values: np.ndarray, ones: np.ndarray, name: str) -> None:
    """A map sums to sum N_i^2 / N - sum N_i N_i+1 / (N - 1) (every ordered pair lands)."""
    n = ones.size
    ones = [int(v) for v in ones]
    sig = sum(v * v for v in ones)
    ref = sum(a * b for a, b in zip(ones[:-1], ones[1:]))
    want, tol = excess(sig, ref, n)
    got = math.fsum(values.ravel())
    require(abs(got - want) <= tol, f"{name}: total {got!r}, expected {want!r}")


def check_central_bins(values: np.ndarray, bits: np.ndarray, mode: str, name: str) -> None:
    """The 3 x 3 central bins equal direct counts from ANDed frames.

    Difference bin (dr, dc): a frame ANDed with itself (signal) or with the
    next frame (reference) shifted by (dr, dc).  Sum bin (sr, sc): the same
    with the point reflection of the second frame, shifted by
    (H - 1 - sr, W - 1 - sc).
    """
    n, h, w = bits.shape
    second = bits if mode == "difference" else bits[:, ::-1, ::-1]
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            if mode == "difference":
                dr, dc, row, col = i, j, i + h - 1, j + w - 1
            else:
                row, col = 2 * (h // 2) + i, 2 * (w // 2) + j
                dr, dc = h - 1 - row, w - 1 - col
            sig = overlap(bits, second, dr, dc)
            ref = overlap(bits[:-1], second[1:], dr, dc)
            want, tol = excess(sig, ref, n)
            got = float(values[row, col])
            require(abs(got - want) <= tol,
                    f"{name}: bin ({row}, {col}) is {got!r}, direct count gives {want!r}")


def dark_occupancy(path, config: dict, summary: dict, chunk: int = 100) -> float:
    """Dark-stack occupancy at the reported k, with this module's per-pixel means.

    The means are clipped to the reported centre +- 5 sigma_noise, as the
    camera's CIC and tail events would otherwise drag them.
    """
    h, w = config["roi_height"], config["roi_width"]
    n = config["n_dark_frames"]
    raw = np.memmap(path, dtype="<i4", mode="r", offset=HEADER.size, shape=(n, h, w))
    centre, sigma, k = summary["dark_centre"], summary["sigma_noise"], summary["threshold_k"]
    lo, hi = centre - 5 * sigma, centre + 5 * sigma
    total = np.zeros((h, w))
    count = np.zeros((h, w), dtype=np.int64)
    for start in range(0, n, chunk):
        v = raw[start:start + chunk] / RAW_SCALE
        ok = (v >= lo) & (v <= hi)
        total += np.where(ok, v, 0.0).sum(axis=0)
        count += ok.sum(axis=0)
    mean = np.where(count > 0, total / np.maximum(count, 1), centre)
    fired = 0
    for start in range(0, n, chunk):
        fired += int(np.count_nonzero(raw[start:start + chunk] / RAW_SCALE - mean > k * sigma))
    return fired / (n * h * w)


def check_dark_threshold(path, config: dict, summary: dict) -> None:
    """Calibration on the camera model, and the reported k giving target_occupancy.

    The dark level is readout_mean plus Gaussian noise of readout_sigma; CIC
    and tail events push a share q = 1 - (1 - cic_prob)(1 - tail_prob) of
    pixels upward.  That moves the median to the core's 0.5 / (1 - q)
    quantile and the MAD to its 0.75 + 0.25 q / (1 - q) quantile (at most:
    small tail events stay inside the MAD), so the calibration must land
    there.  k inverts a histogram of z-bins Z_BIN wide, so the occupancy at
    k can miss the target by at most the share of pixels in one bin at k,
    phi(k) * Z_BIN for the Gaussian core; the tolerance is twice that.
    """
    core = NormalDist()
    q = 1 - (1 - config["cic_prob"]) * (1 - config["tail_prob"])
    mean, sd = config["readout_mean"], config["readout_sigma"]
    centre = mean + sd * core.inv_cdf(0.5 / (1 - q))
    ratio = core.inv_cdf(0.75 + 0.25 * q / (1 - q)) / core.inv_cdf(0.75)
    require(abs(summary["dark_centre"] - centre) <= 0.01 * sd,
            f"dark centre {summary['dark_centre']}, camera model gives {centre:.4f}")
    require(abs(summary["sigma_noise"] / sd - ratio) <= 0.005,
            f"sigma_noise {summary['sigma_noise']}, camera model gives {sd} x {ratio:.4f}")
    k = summary["threshold_k"]
    tol = 2 * Z_BIN * core.pdf(k)
    occ = dark_occupancy(path, config, summary)
    target = config["target_occupancy"]
    require(abs(occ - target) <= tol,
            f"dark occupancy {occ:.6f} at k = {k:.4f}, target {target} +- {tol:.2g}")


def mean_pairs_per_frame(config: dict) -> float:
    pixels = config["roi_height"] * config["roi_width"]
    return config["photons_per_pixel"] * pixels / (2 * config["heralding_efficiency"])


def check_pairs(config: dict, summary: dict) -> None:
    """Generated pairs within 5 sigma of Poisson(N rate); intact ones of Binomial(G, p).

    Loss after the crystal thins each photon (rate mu, p = eta^2); loss
    before it thins the pump (rate mu eta, p = 1).
    """
    mu, eta = mean_pairs_per_frame(config), config["heralding_efficiency"]
    rate, p = (mu, eta * eta) if config["attenuation_mode"] == "after_crystal" else (mu * eta, 1.0)
    for plane, st in summary["planes"].items():
        n, gen, intact = st["n_frames"], st["n_pairs_generated"], st["n_pairs_surviving"]
        require(abs(gen - n * rate) <= 5 * math.sqrt(n * rate),
                f"{plane}: {gen} pairs generated, expected {n * rate:.0f}")
        require(abs(intact - gen * p) <= 5 * math.sqrt(gen * p * (1 - p)),
                f"{plane}: {intact} intact pairs of {gen}, expected share {p:.4g}")


def peak_snr(values: np.ndarray, mask: np.ndarray, peak: tuple[int, int]) -> float:
    """Mean of the 3 x 3 peak over the standard error of the 60..150 annulus."""
    rows = np.arange(values.shape[0])[:, None]
    cols = np.arange(values.shape[1])[None, :]
    cheb = np.maximum(np.abs(rows - peak[0]), np.abs(cols - peak[1]))
    ok = ~mask
    top = values[(cheb <= 1) & ok]
    bg = values[(cheb >= 60) & (cheb <= 150) & ok]
    return float(top.mean() / (bg.std() / math.sqrt(top.size)))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_report(report: dict, ones: dict, maps: dict, config: dict) -> None:
    """Report figures against the popcounts, the maps and the flag's own rule."""
    h, w = config["roi_height"], config["roi_width"]
    for plane, counts in ones.items():
        require(report["n_frames"][plane] == counts.size,
                f"report n_frames[{plane}] = {report['n_frames'][plane]}")
        occ = int(counts.sum()) / (counts.size * h * w)
        require(close(report["occupancy"][plane], occ, 1e-12),
                f"report occupancy[{plane}] = {report['occupancy'][plane]}, counted {occ}")
    for key, name, peak in (("snr_pos", "image_difference", (h - 1, w - 1)),
                            ("snr_mom", "farfield_sum", (2 * (h // 2), 2 * (w // 2)))):
        own = peak_snr(maps[f"{name}_values"], maps[f"{name}_mask"], peak)
        require(close(float(report[key]), own), f"report {key} = {report[key]}, map gives {own}")
    var_x, var_p = float(report["cond_var_x_um2"]), float(report["cond_var_p_hbar2_per_um2"])
    product = float(report["epr_product_hbar2"])
    if math.isfinite(var_x) and math.isfinite(var_p):
        require(close(product, var_x * var_p, 1e-12), f"EPR product {product} != Var x * Var p")
    gate = config["snr_gate"]
    flag = (math.isfinite(product) and product < 0.25
            and float(report["snr_pos"]) >= gate and float(report["snr_mom"]) >= gate)
    require(report["epr_violated"] == flag, f"epr_violated = {report['epr_violated']}")


def predicted_widths(config: dict) -> tuple[float, float]:
    """M sqrt(alpha L lambda_p / 2 pi) and f / (k w_p), k = 2 pi / (2 lambda_p), in um."""
    sigma_minus = math.sqrt(config["alpha"] * config["crystal_length"]
                            * config["pump_wavelength"] / (2 * math.pi))
    k = 2 * math.pi / (2 * config["pump_wavelength"])
    return (config["magnification"] * sigma_minus,
            config["effective_focal"] / (k * config["pump_waist"]))


def figure_checks(report: dict, config: dict) -> list:
    """The entanglement figures a run with real pairs must recover."""
    def snr():
        gate = config["snr_gate"]
        require(report["snr_pos"] >= gate and report["snr_mom"] >= gate,
                f"peak SNRs {report['snr_pos']}, {report['snr_mom']} under the gate {gate}")

    def widths():
        for key, want in zip(("sigma_pos_um", "sigma_mom_um"), predicted_widths(config)):
            got = float(report[key])
            require(abs(got / want - 1) <= 0.25, f"{key} = {got}, closed form {want:.4g}")

    def epr():
        product = float(report["epr_product_hbar2"])
        require(product < 0.25 / 100 and report["epr_violated"],
                f"EPR product {product}, flag {report['epr_violated']}")

    def bootstrap():
        errors = report["errors"]
        for key in BOOTSTRAP_KEYS:
            v = float(errors.get(key, "nan"))
            require(math.isfinite(v) and v > 0, f"bootstrap error {key} = {v}")

    def modes():
        for key in ("d_pos", "d_mom"):
            v = float(report[key])
            require(math.isfinite(v) and v > 1, f"{key} = {v}")

    return [("snr_gate", snr), ("widths", widths), ("epr", epr),
            ("bootstrap_errors", bootstrap), ("mode_counts", modes)]


def attempt(name: str, fn) -> tuple[str, str | None]:
    try:
        fn()
    except CheckFailed as exc:
        return name, str(exc)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return name, f"{type(exc).__name__}: {exc}"
    return name, None


def check_round(work, spec: dict, config: dict) -> list:
    """Every check of one round directory (`round.py` layout) -> [(name, error)]."""
    work = Path(work)
    out = work / "out"
    results = []
    n = config["n_frames"]
    for plane, kind, count in (("dark", KIND_RAW, config["n_dark_frames"]),
                               ("image", KIND_BINARY, n), ("farfield", KIND_BINARY, n)):
        results.append(attempt(f"stack:{plane}", lambda: check_stack(
            out / f"{plane}.bpcm", kind=kind, plane=plane, n_frames=count, config=config)))
    try:
        summary = json.loads((out / "sim_summary.json").read_text())
        report = json.loads((out / "report.json").read_text())
        maps = dict(np.load(work / "maps.npz"))
        bits = {p: read_bits(out / f"{p}.bpcm", config) for p in ("image", "farfield")}
    except (OSError, ValueError) as exc:
        return results + [("outputs", f"{type(exc).__name__}: {exc}")]
    ones = {p: b.sum(axis=(1, 2), dtype=np.int64) for p, b in bits.items()}
    for plane in ("image", "farfield"):
        results.append(attempt(f"popcounts:{plane}", lambda: check_popcounts(
            ones[plane], plane, summary, spec["route"], config["sparse_threshold"])))
    for plane, name, mode in (("image", "image_difference", "difference"),
                              ("farfield", "farfield_sum", "sum")):
        values = maps[f"{name}_values"]
        results.append(attempt(f"map_total:{name}",
                               lambda: check_map_total(values, ones[plane], name)))
        results.append(attempt(f"map_bins:{name}", lambda: check_central_bins(
            values, bits[plane], mode, name)))
    results.append(attempt("dark_threshold",
                           lambda: check_dark_threshold(out / "dark.bpcm", config, summary)))
    results.append(attempt("pairs", lambda: check_pairs(config, summary)))
    results.append(attempt("report", lambda: check_report(report, ones, maps, config)))
    results.extend(attempt(name, fn) for name, fn in figure_checks(report, config))
    return results


def check_rerun(work, config: dict, picked: dict) -> list:
    """Frames re-run call by call equal the stored frames bit for bit."""
    work = Path(work)
    results = []
    for plane, idx in picked.items():
        def same():
            per = frame_bytes(KIND_BINARY, config["roi_height"], config["roi_width"])
            with open(work / "out" / f"{plane}.bpcm", "rb") as fh:
                stored = []
                for i in idx:
                    fh.seek(HEADER.size + i * per)
                    stored.append(fh.read(per))
            rerun = (work / f"{plane}.rerun.bpcm").read_bytes()[HEADER.size:]
            require(len(rerun) == len(idx) * per, f"{plane}: re-run stack has wrong size")
            bad = [i for j, i in enumerate(idx) if rerun[j * per:(j + 1) * per] != stored[j]]
            require(not bad, f"{plane}: re-run frames {bad[:5]} differ from the stack")
        results.append(attempt(f"rerun:{plane}", same))
    return results


def fingerprint(work) -> dict:
    """sha256 of the stacks and the report of a round, to compare rounds."""
    out = Path(work) / "out"
    digests = {}
    for name in ("dark.bpcm", "image.bpcm", "farfield.bpcm", "report.json"):
        h = hashlib.sha256()
        with open(out / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 22), b""):
                h.update(block)
        digests[name] = h.hexdigest()
    return digests
