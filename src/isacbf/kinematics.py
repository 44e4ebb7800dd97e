"""Vehicle kinematics on a straight road past the RSU.

The RSU sits at the origin with its ULA along the road (+x axis); vehicles
drive in +x at a constant lateral offset.  Angles are measured from the array
axis so that cos(theta) enters the steering phases directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig

# nominal starting positions; vehicles beyond the third extend in +x
_BASE_ANCHORS = ((15.0, 20.0), (25.0, 20.0), (35.0, 20.0))
_ANCHOR_SPACING = 10.0


@dataclass(frozen=True)
class VehicleState:
    """The K vehicles of one slot as [K] arrays, of n slots as [n, K] arrays,
    or one vehicle as scalars."""
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    theta: np.ndarray  # angle to RSU, rad, in (0, pi)
    dist: np.ndarray   # range to RSU, m

    def records(self) -> list["VehicleState"]:
        """The states along the first axis: one scalar VehicleState per
        vehicle of [K] arrays, one [K] state per slot of [n, K] arrays."""
        return [VehicleState(*f) for f in zip(
            self.x, self.y, self.v, self.theta, self.dist)]


def derive_geometry(x, y):
    """Angle/range pair of vehicles at (x, y)."""
    dist = np.hypot(x, y)
    if np.any(dist == 0.0):
        raise ValueError("vehicle cannot be at the RSU origin")
    return np.arctan2(y, x), dist


def make_state(x, y, v) -> VehicleState:
    theta, dist = derive_geometry(x, y)
    return VehicleState(x=x, y=y, v=v, theta=theta, dist=dist)


def anchor_points(k: int) -> list[tuple[float, float]]:
    anchors = list(_BASE_ANCHORS)
    while len(anchors) < k:
        last = anchors[-1]
        anchors.append((last[0] + _ANCHOR_SPACING, last[1]))
    return anchors[:k]


def init_vehicles(config: SimConfig, rng: np.random.Generator) -> VehicleState:
    """Place K vehicles at jittered anchors with uniform initial speeds.

    Draw order per vehicle is (dx, dy, v): two standard normals for position
    jitter, then U(v_min, v_max) for speed.
    """
    draws = [(ax + rng.standard_normal(), ay + rng.standard_normal(),
              rng.uniform(config.v_min, config.v_max))
             for ax, ay in anchor_points(config.n_vehicles)]
    return make_state(*np.array(draws).T)


def step_motion(state: VehicleState, config: SimConfig,
                rng: np.random.Generator, n_steps: int) -> VehicleState:
    """Advance n_steps slots from one [n_steps, K] draw of slot-average
    speeds (the per-slot draws in slot order, vehicle order within a slot)
    and return the trajectory: state followed by the n_steps states after
    it, as [n_steps + 1, K] arrays.  Vehicles move parallel to the road,
    x' = x + v_new * slot_dur, and x accumulates slot by slot, so every
    state has the bits of the same number of one-slot steps.
    """
    v_new = rng.uniform(config.v_min, config.v_max,
                        size=(n_steps,) + np.shape(state.x))
    x = np.cumsum(np.concatenate((state.x[None], v_new * config.slot_dur)),
                  axis=0)
    return make_state(x, np.broadcast_to(state.y, x.shape).copy(),
                      np.concatenate((state.v[None], v_new)))
