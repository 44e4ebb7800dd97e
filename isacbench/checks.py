"""Correctness checks for the benchmark's workloads.

Every check is written apart from the program: the reference formulas
(steering vector, path loss, SINR, the conv/pool loops, the finite-difference
Fisher information) are restated here from their definitions, so a defect in
the program's own copy cannot make its output look right.  A check raises
``CheckFailed`` naming the first offending item; it never compares against a
stored copy of earlier output.
"""
from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program violates a property it must have."""


def _fail(name: str, detail: str):
    raise CheckFailed(f"{name}: {detail}")


# ---- reference formulas -----------------------------------------------------

def ref_steering(theta, n_ant: int) -> np.ndarray:
    """ULA steering exp(-j*pi*m*cos(theta))/sqrt(N) along a trailing axis."""
    m = np.arange(n_ant)
    return np.exp(-1j * np.pi * m * np.cos(np.asarray(theta))[..., None]) \
        / math.sqrt(n_ant)


def ref_channel(theta, dist, cfg) -> np.ndarray:
    """h = sqrt(N_t) * alpha(d) * a(theta) with alpha(d)^2 = a0 (d/d0)^-zeta."""
    alpha2 = cfg.pathloss_ref * (np.asarray(dist) / cfg.ref_dist) \
        ** (-cfg.pathloss_exp)
    return (math.sqrt(cfg.n_tx) * np.sqrt(alpha2))[..., None] \
        * ref_steering(theta, cfg.n_tx)


def ref_sum_rate(h_cols: np.ndarray, w: np.ndarray, sigma2: float) -> float:
    """Sum over users of log2(1 + |h_k^H w_k|^2 / (sum_j!=k |h_k^H w_j|^2 + s2))."""
    k = w.shape[1]
    total = 0.0
    for u in range(k):
        gains = [abs(np.vdot(h_cols[:, u], w[:, j])) ** 2 for j in range(k)]
        interference = sum(gains) - gains[u]
        total += math.log2(1.0 + gains[u] / (interference + sigma2))
    return total


def ref_genie_rate(dists, cfg) -> float:
    """Sum_k log2(1 + (P/K) N_t alpha(d_k)^2 / sigma^2)."""
    p = cfg.power_budget / cfg.n_vehicles
    total = 0.0
    for d in dists:
        alpha2 = cfg.pathloss_ref * (d / cfg.ref_dist) ** (-cfg.pathloss_exp)
        total += math.log2(1.0 + p * cfg.n_tx * alpha2 / cfg.noise_vehicle)
    return total


def ref_conv3x3_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation, one output pixel and filter at a time.

    y[n, i, j, f] = b[f] + sum_{dy, dx, c} xpad[n, i+dy, j+dx, c] w[f, dy, dx, c]
    """
    n, h, wd, cin = x.shape
    nf = w.shape[0]
    xp = np.zeros((n, h + 2, wd + 2, cin))
    xp[:, 1:-1, 1:-1, :] = x
    y = np.empty((n, h, wd, nf))
    for i in range(h):
        for j in range(wd):
            patch = xp[:, i:i + 3, j:j + 3, :].reshape(n, 9 * cin)
            for f in range(nf):
                y[:, i, j, f] = patch @ w[f].reshape(9 * cin) + b[f]
    return y


def ref_maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max-pool with the window index (2*dy + dx) of the first maximum."""
    n, h, wd, c = x.shape
    out = np.empty((n, h // 2, wd // 2, c))
    idx = np.empty((n, h // 2, wd // 2, c), dtype=np.int64)
    for i in range(h // 2):
        for j in range(wd // 2):
            best = x[:, 2 * i, 2 * j, :].copy()
            arg = np.zeros(best.shape, dtype=np.int64)
            for q in (1, 2, 3):
                cand = x[:, 2 * i + q // 2, 2 * j + q % 2, :]
                better = cand > best
                best = np.where(better, cand, best)
                arg = np.where(better, q, arg)
            out[:, i, j, :] = best
            idx[:, i, j, :] = arg
    return out, idx


def fd_crlb_theta(echo_mean, theta: float, dist: float, w_k: np.ndarray, cfg,
                  eps: float = 1e-7) -> float:
    """1/F11 with F11 = ||d r/d theta||^2 / sigma_r^2 by central differences."""
    dr = (echo_mean(theta + eps, dist, w_k, cfg)
          - echo_mean(theta - eps, dist, w_k, cfg)) / (2.0 * eps)
    f11 = float(np.vdot(dr, dr).real) / cfg.echo_noise_var
    return 1.0 / f11 if f11 > 0 else math.inf


# ---- train --------------------------------------------------------------------

def fd_noise(loss: float, step: float = 1e-6) -> float:
    """Rounding error of a central difference of a loss near ``loss``.

    Evaluating the loss in float64 leaves an error of a few ulps of |loss|;
    the difference quotient divides it by the step.  The factor 20 covers the
    sums inside the loss.
    """
    return 20.0 * np.finfo(float).eps * abs(loss) / step


def check_gradient(analytic: np.ndarray, fd: np.ndarray, coords,
                   atol, rtol: float = 1e-4) -> None:
    """Reverse-mode gradient entries against central differences.

    ``fd[s, c]`` is the difference quotient of coordinate ``coords[c]`` at
    step ``s`` and ``atol[s]`` its rounding error (``fd_noise``).  An entry
    passes when one of its quotients agrees to ``rtol`` relative to the larger
    value, plus that step's ``atol``.  Several steps are needed because ReLU
    and max-pool make the loss piecewise smooth: a kink within one step of the
    point spoils that quotient, and a shorter step is far less likely to span
    one.  A wrong gradient misses every quotient.
    """
    a = np.asarray(analytic, dtype=float)[list(coords)]
    f = np.atleast_2d(np.asarray(fd, dtype=float))
    tol = np.asarray(atol, dtype=float).reshape(-1, 1)
    if not (np.isfinite(a).all() and np.isfinite(f).all()):
        _fail("gradient", "non-finite gradient entry")
    err = np.abs(a - f) / (rtol * np.maximum(np.abs(a), np.abs(f)) + tol)
    best = err.min(axis=0)
    c = int(best.argmax())
    if best[c] > 1.0:
        s = int(err[:, c].argmin())
        _fail("gradient", f"coordinate {list(coords)[c]}: reverse-mode "
              f"{a[c]:.10g} vs finite difference {f[s, c]:.10g} "
              f"(off by {abs(a[c] - f[s, c]):.3g}, allowed "
              f"{rtol:g} relative + {tol[s, 0]:.3g})")


def check_conv(x, w, b, y, rtol: float = 1e-12) -> None:
    """Conv output equals the direct-loop reference on the same input."""
    ref = ref_conv3x3_same(x, w, b)
    if y.shape != ref.shape:
        _fail("conv", f"shape {y.shape} != reference {ref.shape}")
    scale = max(float(np.abs(ref).max()), 1e-300)
    bad = ~(np.abs(y - ref) <= rtol * scale)      # NaN fails too
    if bad.any():
        pos = tuple(int(v) for v in np.argwhere(bad)[0])
        _fail("conv", f"output {pos} = {y[pos]!r}, reference {ref[pos]!r}")


def check_pool(x, out, idx) -> None:
    """Max-pool values and first-maximum indices equal the loop reference."""
    ref, ref_idx = ref_maxpool2x2(x)
    if out.shape != ref.shape or idx.shape != ref_idx.shape:
        _fail("pool", f"shape {out.shape} != reference {ref.shape}")
    if not np.array_equal(out, ref):
        pos = tuple(int(v) for v in np.argwhere(out != ref)[0])
        _fail("pool", f"value {pos} = {out[pos]!r}, reference {ref[pos]!r}")
    if not np.array_equal(idx, ref_idx):
        pos = tuple(int(v) for v in np.argwhere(idx != ref_idx)[0])
        _fail("pool", f"index {pos} = {idx[pos]}, reference {ref_idx[pos]}")


def check_losses(trace, name: str) -> None:
    """Every loss is finite and the last tenth averages below the first tenth."""
    loss = np.asarray(trace, dtype=float)
    if loss.size < 2:
        _fail(name, f"only {loss.size} losses recorded")
    if not np.isfinite(loss).all():
        _fail(name, f"non-finite loss at iteration {int(np.argmin(np.isfinite(loss)))}")
    tenth = max(1, loss.size // 10)
    first, last = loss[:tenth].mean(), loss[-tenth:].mean()
    if not last < first:
        _fail(name, f"mean loss of the last {tenth} iterations {last:.6g} "
              f"is not below that of the first {tenth} {first:.6g}")


# ---- eval ---------------------------------------------------------------------

def check_episode(trace, method: str, cfg, echo_mean,
                  crlb_rtol: float = 1e-6, rate_rtol: float = 1e-9) -> None:
    """Rates, angle CRLBs and causality of one re-run episode.

    The genie recomputes its beams from the current truth and is exempt from
    causality; its rate is the interference-free closed form.
    """
    n = len(trace.rates)
    if n != cfg.n_slots:
        _fail(method, f"{n} slots recorded, expected {cfg.n_slots}")
    for s in range(n):
        states, w = trace.states[s], trace.w_applied[s]
        thetas = [v.theta for v in states]
        dists = [v.dist for v in states]
        if method == "genie":
            expect = ref_genie_rate(dists, cfg)
        else:
            if not trace.decided_at[s] < s:
                _fail(method, f"slot {s} applies W decided at slot "
                      f"{trace.decided_at[s]}")
            h = ref_channel(thetas, dists, cfg).T
            expect = ref_sum_rate(h, w, cfg.noise_vehicle)
        got = trace.rates[s]
        if not abs(got - expect) <= rate_rtol * abs(expect):
            _fail(method, f"slot {s} rate {got!r} != reference {expect!r}")
        for k, v in enumerate(states):
            ref = fd_crlb_theta(echo_mean, v.theta, v.dist, w[:, k], cfg)
            got = float(trace.crlb_theta[s][k])
            if math.isinf(ref) or math.isinf(got):
                ok = math.isinf(ref) and math.isinf(got)
            else:
                ok = abs(got - ref) <= crlb_rtol * abs(ref)
            if not ok:
                _fail(method, f"slot {s} vehicle {k} CRLB_theta {got!r} != "
                      f"finite-difference 1/F11 {ref!r}")


def check_common_trajectories(traces: dict) -> None:
    """All methods of one realization see the same vehicle trajectories."""
    methods = list(traces)
    base = traces[methods[0]].states
    for m in methods[1:]:
        other = traces[m].states
        if len(other) != len(base):
            _fail("trajectories", f"{m} has {len(other)} slots, "
                  f"{methods[0]} has {len(base)}")
        for s, (a, b) in enumerate(zip(base, other)):
            if a != b:
                _fail("trajectories", f"slot {s}: {m} differs from {methods[0]}")


def check_stats_finite(stats) -> None:
    """Every statistic that monte_carlo_eval reports is a finite number."""
    for st in stats:
        for key, val in st.as_dict().items():
            if isinstance(val, float) and not math.isfinite(val):
                _fail("stats", f"{st.method} {key} = {val!r}")


# ---- gen-data -----------------------------------------------------------------

def _window_slot(ds, t: int) -> np.ndarray:
    return ds.x[:, t, :, :, 0] + 1j * ds.x[:, t, :, :, 1]


def check_dataset(ds, cfg, rtol: float = 1e-12) -> None:
    """True channels and the last window slot match their defining formulas.

    The last slot is the channel rebuilt from the last estimates.  An
    estimate with a distance <= 0 is not used: the simulator carries the
    previous slot's channel forward for that vehicle instead.
    """
    if not (np.isfinite(ds.thetas).all() and (ds.dists > 0).all()):
        _fail("dataset h", "non-finite angle or non-positive distance")
    h_ref = ref_channel(ds.thetas, ds.dists, cfg)
    scale = float(np.abs(h_ref).max())
    bad = ~(np.abs(ds.h - h_ref) <= rtol * scale)
    if bad.any():
        e, k, m = (int(v) for v in np.argwhere(bad)[0])
        _fail("dataset h", f"example {e} vehicle {k} antenna {m}: "
              f"{ds.h[e, k, m]!r} != sqrt(Nt) alpha(d) a(theta) "
              f"{h_ref[e, k, m]!r}")
    last = _window_slot(ds, -1)
    used = ds.est_dists > 0
    expect = (_window_slot(ds, -2) if ds.x.shape[1] > 1
              else np.zeros_like(last))
    expect[used] = ref_channel(ds.est_thetas[used], ds.est_dists[used], cfg)
    bad = ~(np.abs(last - expect) <= rtol * scale)
    if bad.any():
        e, k, m = (int(v) for v in np.argwhere(bad)[0])
        source = ("channel from estimates" if used[e, k]
                  else "previous slot (distance estimate <= 0)")
        _fail("dataset window", f"example {e} vehicle {k} antenna {m}: last "
              f"slot {last[e, k, m]!r} != {source} {expect[e, k, m]!r}")


DATASET_FIELDS = ("x", "h", "thetas", "dists", "est_thetas", "est_dists")


def check_roundtrip(saved, loaded) -> None:
    """Dataset.load returns bit-identical arrays with the same sha256."""
    for name in DATASET_FIELDS:
        a, b = getattr(saved, name), getattr(loaded, name)
        if a.dtype != b.dtype or a.shape != b.shape:
            _fail("round trip", f"{name}: {b.dtype}{b.shape} loaded, "
                  f"{a.dtype}{a.shape} saved")
        if np.ascontiguousarray(a).tobytes() != np.ascontiguousarray(b).tobytes():
            _fail("round trip", f"{name}: loaded bytes differ from saved")
    if saved.sha256() != loaded.sha256():
        _fail("round trip", "sha256 changed")
