import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import start_vehicles, step_slot
from isacbf.kinematics import (VehicleState, anchor_points, make_state,
                               step_motion)


def _bytes(state: VehicleState) -> list:
    """The bytes of each array of state, in field order."""
    return [np.asarray(f).tobytes() for f in vars(state).values()]


def test_geometry_known_point():
    s = make_state(15.0, 20.0, 8.0)
    assert s.dist == pytest.approx(25.0)
    assert s.theta == pytest.approx(0.9272952180016122, abs=1e-15)


def test_geometry_rejects_origin():
    with pytest.raises(ValueError):
        make_state(0.0, 0.0, 8.0)


@given(x=st.floats(-200, 200), y=st.floats(0.5, 100))
def test_geometry_invariants(x, y):
    s = make_state(x, y, 8.0)
    theta, dist = s.theta, s.dist
    assert dist == pytest.approx(math.hypot(x, y))
    assert 0.0 < theta < math.pi            # y > 0 keeps angles in the open half-plane
    assert dist * math.cos(theta) == pytest.approx(x, abs=1e-9 * max(1, abs(x)))


def test_anchor_points_extension():
    pts = anchor_points(5)
    assert pts[:3].tolist() == [[15.0, 20.0], [25.0, 20.0], [35.0, 20.0]]
    assert pts[3].tolist() == [45.0, 20.0] and pts[4].tolist() == [55.0, 20.0]
    assert anchor_points(2).tolist() == [[15.0, 20.0], [25.0, 20.0]]


def test_step_motion_start(cfg):
    """Slot 0 of an episode: the K vehicles at jittered anchors with
    uniform speeds, drawn per vehicle in the order (dx, dy, v)."""
    states = step_motion(cfg, [np.random.default_rng(0)], 1)
    assert states.x.shape == (1, 1, cfg.n_vehicles)
    slot = states.records()[0].records()[0]
    for st_, (ax, ay) in zip(slot.records(), anchor_points(cfg.n_vehicles)):
        assert abs(st_.x - ax) < 6.0 and abs(st_.y - ay) < 6.0
        assert cfg.v_min <= st_.v <= cfg.v_max
    # per-vehicle draw order (dx, dy, v)
    rng = np.random.default_rng(0)
    first = [rng.standard_normal(), rng.standard_normal(),
             rng.uniform(cfg.v_min, cfg.v_max)]
    assert [slot.x[0] - 15.0, slot.y[0] - 20.0, slot.v[0]] \
        == pytest.approx(first, rel=1e-15)
    # deterministic under the seed
    again = step_motion(cfg, [np.random.default_rng(0)], 1)
    assert _bytes(states) == _bytes(again)


def test_step_motion(cfg):
    s0, s1 = step_motion(cfg, [np.random.default_rng(3)], 2).records()[0] \
        .records()
    assert np.array_equal(s1.y, s0.y)
    assert np.all((cfg.v_min <= s1.v) & (s1.v <= cfg.v_max))
    assert s1.x == pytest.approx(s0.x + s1.v * cfg.slot_dur)
    # after the start, one speed per vehicle, the stream of K scalar draws
    rng = np.random.default_rng(3)
    assert _bytes(s0) == _bytes(start_vehicles(cfg, rng))
    assert s1.v.tolist() == [rng.uniform(cfg.v_min, cfg.v_max)
                             for _ in range(cfg.n_vehicles)]
    # derived quantities are self-consistent
    assert s1.dist == pytest.approx(np.hypot(s1.x, s1.y))
    assert s1.theta == pytest.approx(np.arctan2(s1.y, s1.x))


def test_step_motion_block_matches_slot_steps(cfg):
    """The [R, n, K] trajectories of R episodes from one call have the bits
    of R one-episode calls and of each episode's one-slot-at-a-time draws
    from its generator: the start (start_vehicles), then n - 1 one-slot
    steps (step_slot)."""
    seeds = (3, 0, 11)
    block = step_motion(cfg, [np.random.default_rng(s) for s in seeds], 50)
    assert block.x.shape == block.theta.shape == (3, 50, cfg.n_vehicles)
    for seed, traj in zip(seeds, block.records()):
        one = step_motion(cfg, [np.random.default_rng(seed)], 50)
        assert _bytes(traj) == _bytes(one.records()[0])
        rng = np.random.default_rng(seed)
        slots = [start_vehicles(cfg, rng)]
        for _ in range(49):
            slots.append(step_slot(slots[-1], cfg, rng))
        assert _bytes(traj) == _bytes(VehicleState(*map(np.stack, zip(
            *(vars(s).values() for s in slots)))))


def test_vehicles_advance_downrange(cfg):
    traj = step_motion(cfg, [np.random.default_rng(5)], 51)
    assert np.all(np.diff(traj.x, axis=1) > 0)
    assert traj.x[0, -1] - traj.x[0, 0] == pytest.approx(
        np.full(cfg.n_vehicles, 50 * 8.125 * cfg.slot_dur), rel=0.01)
