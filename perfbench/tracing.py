"""Per-layer figures of one round, timed from the benchmark's side.

`Tracer.installed()` swaps wrappers in for the functions and classes that
`bpcam.pipeline` calls (and for `correlate.pair_histogram` and
`inference.curve_fit`, which the fits reach through their own modules), so
each call into a layer is timed and counted while the program runs
unchanged.  The plane workers are spawned processes that import the
package afresh and so run unwrapped; `rerun_sample` re-runs a sample of
their frames in this process, call by call, and writes them to a stack
that the checks compare with the stored one bit for bit.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import defaultdict

import numpy as np

import bpcam.correlate as correlate
import bpcam.inference as inference
import bpcam.pipeline as pipeline
from bpcam import emccd, framestack, sampler
from bpcam.errors import AnalysisError, FitFailureError
from bpcam.model import Plane

PLANES = (("image", Plane.IMAGE, framestack.PLANE_IMAGE),
          ("farfield", Plane.FAR_FIELD, framestack.PLANE_FARFIELD))


def cpu_s() -> float:
    """CPU seconds of this process and of its reaped children (plane workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Calls and seconds per span name, plus phase marks (wall, cpu)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.marks: dict = {}
        self.calibration = None
        self.k = None

    def add(self, name: str, dt: float, n: int = 1) -> None:
        with self._lock:
            self.calls[name] += n
            self.seconds[name] += dt

    def mark(self, name: str, latest: bool = False) -> None:
        """Record (wall, cpu) at a phase boundary; `latest` keeps the last of several."""
        now = (time.perf_counter(), cpu_s())
        with self._lock:
            if not latest or name not in self.marks or now[0] > self.marks[name][0]:
                self.marks[name] = now

    def timed(self, name: str, fn, on_return=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                # a fit that fails still spent its time
                self.add(name, time.perf_counter() - t0)
            if on_return is not None:
                on_return(out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    def _patches(self):
        tracer = self

        def keep_calibration(cal):
            tracer.calibration = cal

        def keep_k(k):
            tracer.k = k
            tracer.mark("dark_done")

        class TracedWriter(framestack.StackWriter):
            # in the caller, simulate writes only the dark stack
            def write(self, frame):
                t0 = time.perf_counter()
                super().write(frame)
                tracer.add("framestack.dark_write", time.perf_counter() - t0)

        class TracedReader(framestack.StackReader):
            # dark frames are read inside calibrate and flux_k, which are timed whole
            def __iter__(self):
                timed = self.kind == framestack.KIND_BINARY
                per = self.header.frame_nbytes
                frames = super().__iter__()
                while True:
                    t0 = time.perf_counter()
                    try:
                        frame = next(frames)
                    except StopIteration:
                        return
                    if timed:
                        tracer.add("framestack.read_frame", time.perf_counter() - t0)
                    tracer.add("framestack.bytes_read", 0.0, per)
                    yield frame

        class TracedAccumulator(correlate.StackAccumulator):
            def add(self, bits):
                sparse = np.count_nonzero(bits) <= self.sparse_threshold
                t0 = time.perf_counter()
                super().add(bits)
                tracer.add("correlate.add", time.perf_counter() - t0)
                tracer.add("correlate.frames_sparse" if sparse else "correlate.frames_spectral",
                           0.0)

            def finalize(self):
                t0 = time.perf_counter()
                out = super().finalize()
                tracer.add("correlate.finalize", time.perf_counter() - t0)
                tracer.mark("accumulated", latest=True)
                return out

        def bootstrap(blocks, statistic, **kwargs):
            def counted(joints):
                try:
                    out = statistic(joints)
                except (AnalysisError, FitFailureError):
                    tracer.add("inference.resamples_failed", 0.0)
                    raise
                tracer.add("inference.resamples_ok", 0.0)
                return out
            return original_bootstrap(blocks, counted, **kwargs)

        original_bootstrap = pipeline.block_bootstrap
        curve_fit = inference.curve_fit

        def counted_curve_fit(*args, **kwargs):
            tracer.add("inference.curve_fit", 0.0)
            return curve_fit(*args, **kwargs)

        return [
            (pipeline, "expose", self.timed("emccd.dark_expose", pipeline.expose)),
            (pipeline, "calibrate", self.timed("emccd.calibrate", pipeline.calibrate,
                                               keep_calibration)),
            (pipeline, "calibrate_flux_equivalence",
             self.timed("emccd.flux_k", pipeline.calibrate_flux_equivalence, keep_k)),
            (pipeline, "StackWriter", TracedWriter),
            (pipeline, "StackReader", TracedReader),
            (pipeline, "StackAccumulator", TracedAccumulator),
            (correlate, "pair_histogram", self.timed("correlate.pair_histogram",
                                                     correlate.pair_histogram)),
            (pipeline, "make_blocks", self.timed("inference.make_blocks", pipeline.make_blocks)),
            (pipeline, "block_bootstrap", self.timed("inference.bootstrap", bootstrap)),
            (pipeline, "fit_map_width", self.timed("inference.point_fits",
                                                   pipeline.fit_map_width)),
            (pipeline, "inferred_variance", self.timed("inference.point_fits",
                                                       pipeline.inferred_variance)),
            (pipeline, "dimensionality", self.timed("inference.point_fits",
                                                    pipeline.dimensionality)),
            (inference, "curve_fit", counted_curve_fit),
        ]

    def rerun_sample(self, config, out_dir, n_sample: int) -> dict:
        """Re-run `n_sample` frames of each plane call by call into `<plane>.rerun.bpcm`.

        Returns {plane: sampled frame indices}.
        """
        picked = {}
        source, flux = config.source(), config.flux()
        for name, plane, code in PLANES:
            optics, cam = config.optics(plane), config.camera(plane)
            idx = np.unique(np.linspace(0, config.n_frames - 1, n_sample).astype(int))
            picked[name] = idx.tolist()
            with framestack.StackWriter(os.path.join(out_dir, f"{name}.rerun.bpcm"),
                                        kind=framestack.KIND_BINARY, plane=code,
                                        shape=config.roi, seed=config.seed,
                                        config_digest=config.sim_digest()) as wr:
                for i in idx:
                    t0 = time.perf_counter()
                    rng = sampler.substream(config.seed, code, int(i))
                    events = sampler.generate_frame_events(source, optics, flux, rng)
                    t1 = time.perf_counter()
                    frame, _ = emccd.expose(events.impacts, cam, rng)
                    t2 = time.perf_counter()
                    bits = emccd.threshold(frame, self.calibration, self.k)
                    t3 = time.perf_counter()
                    wr.write(bits)
                    t4 = time.perf_counter()
                    self.add("sampler.frame_events", t1 - t0)
                    self.add("sampler.pairs", 0.0, events.n_pairs_generated)
                    self.add("emccd.expose", t2 - t1)
                    self.add("emccd.threshold", t3 - t2)
                    self.add("framestack.write", t4 - t3)
        return picked

    def metrics(self, stack_bytes: float) -> dict:
        """Per-layer metrics (without the phase figures) from the recorded spans."""
        def mean_ms(name):
            n = self.calls[name]
            return 1e3 * self.seconds[name] / n if n else 0.0

        m = {}
        for key, span in (("sampler.frame_events_ms", "sampler.frame_events"),
                          ("emccd.expose_ms", "emccd.expose"),
                          ("emccd.threshold_ms", "emccd.threshold"),
                          ("emccd.dark_expose_ms", "emccd.dark_expose"),
                          ("framestack.write_ms", "framestack.write"),
                          ("framestack.dark_write_ms", "framestack.dark_write"),
                          ("framestack.read_frame_ms", "framestack.read_frame"),
                          ("correlate.add_ms", "correlate.add"),
                          ("correlate.pair_histogram_ms", "correlate.pair_histogram")):
            m[key] = (mean_ms(span), "ms")
            if span != "correlate.add":  # its calls are the two frames_* counts
                m[key.removesuffix("_ms") + "_calls"] = (self.calls[span], "count")
        n_frames = self.calls["sampler.frame_events"]
        m["sampler.pairs_per_frame"] = (self.calls["sampler.pairs"] / n_frames if n_frames
                                        else 0.0, "count")
        m["emccd.calibrate_s"] = (self.seconds["emccd.calibrate"], "s")
        m["emccd.flux_k_s"] = (self.seconds["emccd.flux_k"], "s")
        m["framestack.bytes_written_mb"] = (stack_bytes / 1e6, "MB")
        m["framestack.bytes_read_mb"] = (self.calls["framestack.bytes_read"] / 1e6, "MB")
        m["correlate.frames_spectral"] = (self.calls["correlate.frames_spectral"], "count")
        m["correlate.frames_sparse"] = (self.calls["correlate.frames_sparse"], "count")
        m["correlate.finalize_s"] = (self.seconds["correlate.finalize"], "s")
        resamples = (self.calls["inference.resamples_ok"]
                     + self.calls["inference.resamples_failed"])
        m["inference.bootstrap_s"] = (self.seconds["inference.bootstrap"], "s")
        m["inference.resample_ms"] = (1e3 * self.seconds["inference.bootstrap"] / resamples
                                      if resamples else 0.0, "ms")
        m["inference.resamples_ok"] = (self.calls["inference.resamples_ok"], "count")
        m["inference.resamples_failed"] = (self.calls["inference.resamples_failed"], "count")
        m["inference.make_blocks_s"] = (self.seconds["inference.make_blocks"], "s")
        m["inference.point_fits_s"] = (self.seconds["inference.point_fits"], "s")
        m["inference.curve_fit_calls"] = (self.calls["inference.curve_fit"], "count")
        return m
