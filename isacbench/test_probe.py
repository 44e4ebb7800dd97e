"""The probe's scaling to the reference speed:

  python3 -m pytest isacbench -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import NOMINAL_S, at_reference, probe_seconds, slowness  # noqa: E402


def test_probe_takes_positive_time():
    assert probe_seconds() > 0.0


def test_slowness_is_one_at_the_nominal_time():
    assert slowness(NOMINAL_S, NOMINAL_S) == pytest.approx(1.0)
    assert slowness(NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(1.5)


def test_times_shrink_and_rates_grow_on_a_slow_machine():
    assert at_reference("hcl_train_iter_ms", 300.0, 1.5) == pytest.approx(200.0)
    assert at_reference("eval_hcl_us_per_slot", [150.0, 300.0], 1.5) == \
        pytest.approx([100.0, 200.0])
    assert at_reference("gen_examples_per_s", 1000.0, 1.5) == \
        pytest.approx(1500.0)
