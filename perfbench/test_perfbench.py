"""Self-tests of the benchmark on tiny inputs (no 18000-point kernel).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import machine  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_children_once():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping), and a
    # grandchild [4, 5] inside the second child
    spans = [
        Span("op", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 6.0, 0),
        Span("c", 4.0, 5.0, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("op", 0.0, 2.0, -1), Span("late", 1.5, 3.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.5, 1.5])


def test_layer_metrics_are_per_op_and_split_setup_from_ops():
    spans = [
        Span("setup", 0.0, 5.0, -1),
        Span("hankel.get_transform", 0.0, 5.0, 0),
        Span("hankel.build", 0.0, 5.0, 1, work=800.0),  # set-up builds are not op work
        Span("op", 10.0, 14.0, -1),
        Span("hankel.get_transform", 10.0, 10.5, 3),  # a cache hit
        Span("hankel.inverse", 11.0, 12.0, 3, work=4e9),
        Span("beamfit.fit_scan", 12.0, 12.5, 3, failed=True),
        Span("op", 20.0, 22.0, -1),
        Span("hankel.inverse", 20.0, 21.0, 7, work=4e9),
        Span("hankel.build", 21.0, 21.5, 7, work=600.0),
    ]
    metrics = tracing.layer_metrics(spans, stream_gbps=8.0)
    assert metrics["hankel.build_count"][0] == pytest.approx(0.5)
    assert metrics["hankel.setup_build_s"][0] == pytest.approx(5.0)
    assert metrics["hankel.cache_hits"][0] == pytest.approx(0.5)  # the build at 21 s is outside get_transform
    assert metrics["hankel.inverse_count"][0] == pytest.approx(1.0)
    assert metrics["hankel.inverse_s"][0] == pytest.approx(1.0)
    assert metrics["hankel.inverse_gbps"][0] == pytest.approx(4.0)
    assert metrics["hankel.inverse_bw_frac"][0] == pytest.approx(0.5)
    assert metrics["beamfit.fit_scan_failed"][0] == pytest.approx(0.5)
    assert metrics["hankel.kernel_bytes"][0] == pytest.approx(300.0)


def test_tracer_records_tiny_transform_and_restores_originals():
    from pflens import cli, diffraction, hankel

    originals = (hankel.get_transform, cli.get_transform, hankel.HankelTransform.inverse)
    tracer = tracing.Tracer()
    tracing.install_pflens(tracer)
    try:
        hankel.clear_transform_cache()
        with tracer.span(tracing.OP):
            transform = hankel.get_transform(64, 1e-3)
            hankel.get_transform(64, 1e-3)
            beam = diffraction.gaussian_beam(transform, 2e-4, 500e-9)
            transform.inverse(transform.forward(beam.amplitude))
    finally:
        tracer.uninstall()
        hankel.clear_transform_cache()
    assert (hankel.get_transform, cli.get_transform, hankel.HankelTransform.inverse) == originals
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["hankel.build_count"][0] == 1
    assert metrics["hankel.kernel_bytes"][0] == 8 * 64**2
    assert metrics["hankel.cache_hits"][0] == 1
    assert metrics["hankel.inverse_count"][0] == 1
    assert metrics["hankel.forward_count"][0] == 1
    inverse = next(s for s in tracer.spans if s.name == "hankel.inverse")
    assert inverse.work == 2 * 8 * 64**2  # complex input reads the kernel twice


def test_tail_needs_ten_ops_beyond():
    assert run.tail([1.0] * 19) is None
    percentile, value, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (percentile, value, beyond) == (90.0, 90.0, 10)


def test_memory_guard_refuses_before_allocating():
    with pytest.raises(machine.MemoryGuardError):
        machine.require_memory(8 * 18000**2, "test", available=3 * 2**30)
    machine.require_memory(8 * 2048**2, "test", available=3 * 2**30)


def _focal_report(best=350e-9, w0=350e-9, m2=1.05, warnings=()):
    return {
        "best_waist_m": best,
        "caustic_fit": {"parameters": {"w0_m": w0, "m2": m2}},
        "warnings": list(warnings),
    }


def test_focal_check_accepts_in_band_and_rejects_out_of_band():
    assert checks.check_focal_report(_focal_report(), "binary") == []
    assert checks.check_focal_report(_focal_report(best=400e-9), "binary")
    assert checks.check_focal_report(_focal_report(w0=290e-9), "binary")
    assert checks.check_focal_report(_focal_report(m2=1.3), "binary")
    assert checks.check_focal_report(_focal_report(warnings=["boundary"]), "binary")
    no_fit = _focal_report()
    no_fit["caustic_fit"] = None
    assert checks.check_focal_report(no_fit, "binary")


def test_control_check_holds_three_percent_of_321_nm():
    assert checks.check_control(_focal_report(w0=321e-9 * 1.029)) == []
    assert checks.check_control(_focal_report(w0=321e-9 * 1.031))
    assert checks.check_control(_focal_report(w0=321e-9 * 0.969))


def test_convergence_check_needs_target_and_shrinking_steps():
    target = checks.EFFICIENCY_TARGET
    assert checks.check_convergence([target - 0.002, target + 0.001, target + 0.0005]) == []
    assert checks.check_convergence([target, target, target * 1.03])
    assert checks.check_convergence([target, target + 0.0001, target - 0.001])


def _fit_report(w0=350e-9, m2=1.08, offset=1.11e-6, n=50):
    return {
        "parameters": {"w0_m": w0, "m2": m2, "direction_offset_m": offset},
        "points": [{}] * n,
        "scan_errors": [],
        "warnings": [],
    }


def test_fit_check_rejects_fabricated_results():
    truth = {"w0_m": 350e-9, "m2": 1.08, "direction_offset_m": 1.11e-6}
    assert checks.check_fit_report(_fit_report(), truth, 50) == []
    assert checks.check_fit_report(_fit_report(w0=370e-9), truth, 50)
    assert checks.check_fit_report(_fit_report(m2=1.14), truth, 50)
    assert checks.check_fit_report(_fit_report(offset=1.2e-6), truth, 50)
    assert checks.check_fit_report(_fit_report(n=49), truth, 50)
    partial = {"w0_m": 350e-9, "m2": 1.08}
    assert checks.check_fit_report(_fit_report(offset=5e-6), partial, 50) == []


def test_fit_workload_output_passes_its_check(tmp_path):
    import workloads

    workload = workloads.FitScans(np.random.default_rng(3), tmp_path)
    for index in range(2):
        assert workload.check(workload.op(index)) == []
