"""Spans around calls into pflens's public functions, and the per-layer
metrics computed from them.

A Tracer replaces each traced function where its caller looks it up,
records one span per call in memory and restores the originals on
``uninstall``. Two callers bind names of their own: ``pflens.cli`` binds
``get_transform`` and ``pflens.diffraction`` binds ``fit_scan``, so
those names are patched in the binding module as well.

A span is (name, start, end, parent index). Spans are appended when
they open, so a parent always precedes its children. A span's self time
is its duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

OP = "op"
SETUP = "setup"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    work: float = 0.0  # computed size of the call (bytes read, evaluations)
    failed: bool = False


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def patch(self, owner, attribute: str, name: str, work=None) -> None:
        """Wrap owner.attribute in a span; work(args, result) sizes the call."""
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if work is not None:
                    record.work = work(args, result)
            return result

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.work, s.failed] for s in self.spans]


def install_pflens(tracer: Tracer) -> None:
    """Patch the public pflens functions on the benchmarked path."""
    from pflens import beamfit, cli, design, diffraction, hankel

    def kernel_built(args, result):
        return 8 * args[0].n_points**2

    def kernel_read(args, result):
        # a complex input reads the real kernel twice (real and imaginary parts)
        transform, values = args[0], args[1]
        passes = 2 if values.dtype.kind == "c" else 1
        return passes * 8 * transform.n_points**2

    def knife_edge_evals(args, result):
        radii, blades = args[0], args[2]
        return len(blades) * len(radii)

    transform_class = hankel.HankelTransform
    tracer.patch(hankel, "get_transform", "hankel.get_transform")
    tracer.patch(cli, "get_transform", "hankel.get_transform")
    tracer.patch(transform_class, "__init__", "hankel.build", work=kernel_built)
    tracer.patch(transform_class, "forward", "hankel.forward")
    tracer.patch(transform_class, "inverse", "hankel.inverse", work=kernel_read)
    tracer.patch(transform_class, "resample_matrix", "hankel.resample")
    tracer.patch(diffraction, "gaussian_beam", "diffraction.gaussian_beam")
    tracer.patch(diffraction, "apply_binary_pfl", "diffraction.apply_lens")
    tracer.patch(diffraction, "apply_ideal_lens", "diffraction.apply_lens")
    tracer.patch(diffraction, "scan_field", "diffraction.scan_field")
    tracer.patch(diffraction, "measure_waist_knife_edge", "diffraction.measure_waist")
    tracer.patch(
        diffraction, "knife_edge_power_curve", "diffraction.knife_edge", work=knife_edge_evals
    )
    tracer.patch(diffraction, "efficiency_into_focus", "diffraction.efficiency")
    tracer.patch(beamfit, "fit_scan", "beamfit.fit_scan")
    tracer.patch(diffraction, "fit_scan", "beamfit.fit_scan")
    tracer.patch(beamfit, "fit_caustic", "beamfit.fit_caustic")
    tracer.patch(beamfit, "read_scans_csv", "beamfit.read_scans")
    tracer.patch(design, "zone_layout", "design.zone_layout")
    tracer.patch(cli, "main", "cli.main")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[index]):
            lo = max(lo, cursor)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered)
    return result


def root_indices(spans: list[Span]) -> list[int]:
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent < 0 else roots[span.parent])
    return roots


def layer_metrics(spans: list[Span], stream_gbps: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: times and counts are means per timed op."""
    own = self_times(spans)
    roots = root_indices(spans)
    n_ops = sum(1 for s in spans if s.parent < 0 and s.name == OP)
    count: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    hits = 0
    setup_build_s = 0.0
    for index, span in enumerate(spans):
        if span.parent < 0:
            continue
        phase = spans[roots[index]].name
        if phase == SETUP and span.name == "hankel.build":
            setup_build_s += span.end - span.start
        if phase != OP:
            continue
        name = span.name
        count[name] += 1
        seconds[name] += span.end - span.start
        self_s[name] += own[index]
        work[name] += span.work
        failed[name] += span.failed
        if name == "hankel.get_transform":
            hits += 1
        elif name == "hankel.build" and spans[span.parent].name == "hankel.get_transform":
            hits -= 1

    per_op = 1.0 / max(n_ops, 1)
    inverse_gbps = work["hankel.inverse"] / seconds["hankel.inverse"] / 1e9 if count["hankel.inverse"] else 0.0
    metrics = {
        "hankel.build_s": (seconds["hankel.build"] * per_op, "s"),
        "hankel.build_count": (count["hankel.build"] * per_op, "count"),
        "hankel.cache_hits": (hits * per_op, "count"),
        "hankel.kernel_bytes": (work["hankel.build"] * per_op, "B"),
        "hankel.setup_build_s": (setup_build_s, "s"),
        "hankel.inverse_s": (seconds["hankel.inverse"] * per_op, "s"),
        "hankel.inverse_count": (count["hankel.inverse"] * per_op, "count"),
        "hankel.inverse_gbps": (inverse_gbps, "GB/s"),
        "hankel.inverse_bw_frac": (inverse_gbps / stream_gbps if stream_gbps > 0 else 0.0, "ratio"),
        "hankel.forward_s": (seconds["hankel.forward"] * per_op, "s"),
        "hankel.forward_count": (count["hankel.forward"] * per_op, "count"),
        "hankel.resample_s": (seconds["hankel.resample"] * per_op, "s"),
        "diffraction.knife_edge_s": (seconds["diffraction.knife_edge"] * per_op, "s"),
        "diffraction.knife_edge_count": (count["diffraction.knife_edge"] * per_op, "count"),
        "diffraction.knife_edge_evals": (work["diffraction.knife_edge"] * per_op, "count"),
        "diffraction.scan_field_self_s": (self_s["diffraction.scan_field"] * per_op, "s"),
        "diffraction.measure_waist_self_s": (self_s["diffraction.measure_waist"] * per_op, "s"),
        "diffraction.apply_lens_s": (seconds["diffraction.apply_lens"] * per_op, "s"),
        "beamfit.fit_scan_s": (seconds["beamfit.fit_scan"] * per_op, "s"),
        "beamfit.fit_scan_count": (count["beamfit.fit_scan"] * per_op, "count"),
        "beamfit.fit_scan_failed": (failed["beamfit.fit_scan"] * per_op, "count"),
        "beamfit.fit_caustic_s": (seconds["beamfit.fit_caustic"] * per_op, "s"),
        "beamfit.read_scans_s": (seconds["beamfit.read_scans"] * per_op, "s"),
        "design.zone_layout_s": (seconds["design.zone_layout"] * per_op, "s"),
        "cli.self_s": (self_s["cli.main"] * per_op, "s"),
        "machine.stream_gbps": (stream_gbps, "GB/s"),
    }
    return metrics
