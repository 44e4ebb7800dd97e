import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isacbf.kinematics import (anchor_points, derive_geometry, init_vehicles,
                               make_state, step_motion)


def test_geometry_known_point():
    theta, dist = derive_geometry(15.0, 20.0)
    assert dist == pytest.approx(25.0)
    assert theta == pytest.approx(0.9272952180016122, abs=1e-15)


def test_geometry_rejects_origin():
    with pytest.raises(ValueError):
        derive_geometry(0.0, 0.0)


@given(x=st.floats(-200, 200), y=st.floats(0.5, 100))
def test_geometry_invariants(x, y):
    theta, dist = derive_geometry(x, y)
    assert dist == pytest.approx(math.hypot(x, y))
    assert 0.0 < theta < math.pi            # y > 0 keeps angles in the open half-plane
    assert dist * math.cos(theta) == pytest.approx(x, abs=1e-9 * max(1, abs(x)))


def test_anchor_points_extension():
    pts = anchor_points(5)
    assert pts[:3] == [(15.0, 20.0), (25.0, 20.0), (35.0, 20.0)]
    assert pts[3] == (45.0, 20.0) and pts[4] == (55.0, 20.0)
    assert anchor_points(2) == [(15.0, 20.0), (25.0, 20.0)]


def test_init_vehicles(cfg):
    states = init_vehicles(cfg, np.random.default_rng(0))
    assert states.x.shape == (cfg.n_vehicles,)
    for st_, (ax, ay) in zip(states.records(), anchor_points(cfg.n_vehicles)):
        assert abs(st_.x - ax) < 6.0 and abs(st_.y - ay) < 6.0
        assert cfg.v_min <= st_.v <= cfg.v_max
    # per-vehicle draw order (dx, dy, v)
    rng = np.random.default_rng(0)
    first = [rng.standard_normal(), rng.standard_normal(),
             rng.uniform(cfg.v_min, cfg.v_max)]
    assert [states.x[0] - 15.0, states.y[0] - 20.0, states.v[0]] \
        == pytest.approx(first, rel=1e-15)
    # deterministic under the seed
    again = init_vehicles(cfg, np.random.default_rng(0))
    assert states.records() == again.records()


def test_step_motion(cfg):
    s0 = init_vehicles(cfg, np.random.default_rng(0))
    s1 = step_motion(s0, cfg, np.random.default_rng(3), 1).records()[-1]
    assert np.array_equal(s1.y, s0.y)
    assert np.all((cfg.v_min <= s1.v) & (s1.v <= cfg.v_max))
    assert s1.x == pytest.approx(s0.x + s1.v * cfg.slot_dur)
    # one speed per vehicle, the stream of K scalar draws
    rng = np.random.default_rng(3)
    assert s1.v.tolist() == [rng.uniform(cfg.v_min, cfg.v_max)
                             for _ in range(cfg.n_vehicles)]
    # derived quantities are self-consistent
    assert s1.dist == pytest.approx(np.hypot(s1.x, s1.y))
    assert s1.theta == pytest.approx(np.arctan2(s1.y, s1.x))


def test_step_motion_block_matches_slot_steps(cfg):
    """n_steps slots from one [n_steps, K] speed draw give the bits of
    n_steps one-slot steps, the start state first."""
    s0 = init_vehicles(cfg, np.random.default_rng(0))
    traj = step_motion(s0, cfg, np.random.default_rng(3), 49)
    assert traj.x.shape == traj.y.shape == (50, cfg.n_vehicles)
    rng, s, states = np.random.default_rng(3), s0, [s0.records()]
    for _ in range(49):
        s = step_motion(s, cfg, rng, 1).records()[-1]
        states.append(s.records())
    assert [v.records() for v in traj.records()] == states
    one = step_motion(s0, cfg, np.random.default_rng(3), 0)
    assert [v.records() for v in one.records()] == [s0.records()]


def test_vehicles_advance_downrange(cfg):
    s = make_state(np.array([15.0]), np.array([20.0]), np.array([8.0]))
    traj = step_motion(s, cfg, np.random.default_rng(5), 50)
    assert np.all(np.diff(traj.x, axis=0) > 0)
    assert traj.x[-1, 0] == pytest.approx(15.0 + 50 * 8.125 * cfg.slot_dur,
                                          rel=0.01)
