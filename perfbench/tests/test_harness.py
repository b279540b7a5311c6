"""Speed scaling: each timed piece against the calibrations around it."""

import pytest

from perfbench import harness


def test_scale_uses_the_calibrations_before_and_after(monkeypatch):
    ref = harness.REFERENCE_CALIBRATION_S
    samples = iter([ref, 2 * ref, 3 * ref])
    monkeypatch.setattr(harness, "calibrate", lambda: next(samples))
    probe = harness.SpeedProbe()
    # calibrations ref and 2*ref around it: the machine ran 1.5x slow
    assert probe.scale(3.0) == pytest.approx(2.0)
    # the next piece pairs 2*ref (its start) with 3*ref (its end)
    assert probe.scale(5.0) == pytest.approx(2.0)
    assert probe.samples == [ref, 2 * ref, 3 * ref]


def test_reference_speed_leaves_times_unchanged(monkeypatch):
    monkeypatch.setattr(harness, "calibrate",
                        lambda: harness.REFERENCE_CALIBRATION_S)
    probe = harness.SpeedProbe()
    assert [probe.scale(t) for t in (0.5, 1.25)] == pytest.approx([0.5, 1.25])
