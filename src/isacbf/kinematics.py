"""Vehicle kinematics on a straight road past the RSU.

The RSU sits at the origin with its ULA along the road (+x axis); vehicles
drive in +x at a constant lateral offset.  Angles are measured from the array
axis so that cos(theta) enters the steering phases directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig


@dataclass(frozen=True)
class VehicleState:
    """The K vehicles of one slot as [K] arrays, of n slots as [n, K] arrays,
    of R episodes as [R, n, K] arrays, or one vehicle as scalars."""
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


def make_state(x, y, v) -> VehicleState:
    """Vehicles at (x, y) with speeds v, and their angle and range."""
    dist = np.hypot(x, y)
    if np.any(dist == 0.0):
        raise ValueError("vehicle cannot be at the RSU origin")
    return VehicleState(x=x, y=y, v=v, theta=np.arctan2(y, x), dist=dist)


def anchor_points(k: int) -> np.ndarray:
    """[k, 2] nominal starting (x, y) of k vehicles: 20 m from the road
    axis, the first at x = 15 m and each next 10 m further in +x."""
    return np.column_stack((15.0 + 10.0 * np.arange(k), np.full(k, 20.0)))


def step_motion(config: SimConfig, rngs: list, n_slots: int) -> VehicleState:
    """The [R, n_slots, K] trajectories of R episodes, one per motion
    generator of rngs.  Each generator draws its K vehicles' start, per
    vehicle (dx, dy, v): two standard normals that jitter its anchor, then
    U(v_min, v_max) for its speed; then one [n_slots - 1, K] block of
    slot-average speeds (the per-slot draws in slot order, vehicle order
    within a slot).  Vehicles move parallel to the road, x' = x + v *
    slot_dur, and x accumulates slot by slot over the whole block, so every
    state has the bits of the same number of one-slot steps.
    """
    k = config.n_vehicles
    v = np.empty((len(rngs), n_slots, k))
    start = []
    for rng, v_r in zip(rngs, v):
        start.append([(rng.standard_normal(), rng.standard_normal(),
                       rng.uniform(config.v_min, config.v_max))
                      for _ in range(k)])
        v_r[1:] = rng.uniform(config.v_min, config.v_max,
                              size=(n_slots - 1, k))
    (dx, dy, v[:, 0]), (ax, ay) = np.moveaxis(start, -1, 0), anchor_points(k).T
    x = v * config.slot_dur
    x[:, 0] = ax + dx
    return make_state(np.cumsum(x, axis=1, out=x),
                      np.repeat((ay + dy)[:, None], n_slots, axis=1), v)
