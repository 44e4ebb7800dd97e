"""The predictive beamforming networks.

HCLNet: per-vehicle CNN feature extraction on each history slot, temporal
LSTM over the window, and a linear output layer producing the real/imaginary
parts of the beamforming matrix.  All parameters live in one flat float64
vector; the structured weights are views into it, and gradients come from an
explicit reverse pass checked against finite differences in the tests.  One
in-place LSTM cell update, _lstm_cell, serves both the batched training
forward and the slot-by-slot inference stream, HCLStream.

NaiveNet: the fully-connected baseline mapping the last slot's estimated
(angle, distance) pairs straight to a beamforming matrix.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..config import SimConfig, check_same_config
from ..io_container import load_container, save_container
from . import kernels

LSTM_HIDDEN = 64
CONV_FILTERS = 4
CNN_ROWS = 4  # a length-M antenna vector is reshaped to 4 x (M/4) x 2
_ALIGN = 64   # bytes: the boundary the flat parameter vector starts on


def output_to_matrix(o: np.ndarray) -> np.ndarray:
    """Map the real [..., K, M, 2] network output to the complex [..., K, M]
    beams, row k vehicle k's beam: a view of o when o is contiguous."""
    return np.ascontiguousarray(o).view(complex)[..., 0]


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _FlatParams:
    """One flat float64 parameter vector, named views into it and the model
    file that stores it.  A subclass sets KIND and calls _layout(shapes);
    kappa is the input scale the file keeps (only HCL-Net sets it)."""

    KIND = ""
    kappa = 1.0

    def _layout(self, shapes: list[tuple[str, tuple]]) -> None:
        self._shapes = shapes
        self.n_params = sum(int(np.prod(s)) for _, s in shapes)
        # the vector starts on a 64-byte boundary, so where the allocator
        # puts a net does not move its speed
        buf = np.zeros(self.n_params + _ALIGN // 8 - 1)
        first = -buf.ctypes.data % _ALIGN // 8
        self.params = buf[first:first + self.n_params]
        self._views = {}
        off = 0
        for name, shape in shapes:
            size = int(np.prod(shape))
            self._views[name] = self.params[off:off + size].reshape(shape)
            off += size

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

    def _flat_grad(self, blocks: dict) -> np.ndarray:
        """The flat gradient from per-view gradient blocks."""
        return np.concatenate([blocks[name].ravel() for name, _ in self._shapes])

    def save(self, path: str) -> None:
        meta = {"kind": self.KIND, "kappa": self.kappa,
                "config": self.config.as_dict(),
                "shapes": {n: list(s) for n, s in self._shapes}}
        save_container(path, meta, {"params": self.params})


class HCLNet(_FlatParams):
    KIND = "hcl"

    def __init__(self, config: SimConfig, kappa: float = 1.0):
        m = config.n_tx
        self.config = config
        self.kappa = float(kappa)
        self.k = config.n_vehicles
        self.m = m
        self.tau = config.history_len
        self.hidden = LSTM_HIDDEN
        self.feat = self.k * m          # concatenated CNN features per slot
        self.out_dim = 2 * self.k * m
        self._layout([
            ("conv_w", (CONV_FILTERS, 3, 3, 2)),
            ("conv_b", (CONV_FILTERS,)),
            ("wx", (4 * self.hidden, self.feat)),
            ("wh", (4 * self.hidden, self.hidden)),
            ("lstm_b", (4 * self.hidden,)),
            ("fc_w", (self.hidden, self.out_dim)),
            ("fc_b", (self.out_dim,)),
        ])

    def init_params(self, rng: np.random.Generator) -> None:
        """Glorot-uniform weights, zero biases, +1 forget-gate bias; the output
        layer is scaled by sqrt(P/K) so initial beams start near the budget."""
        v = self._views
        v["conv_w"][:] = _glorot(rng, v["conv_w"].shape, 18, 36)
        v["conv_b"][:] = 0.0
        h, f = self.hidden, self.feat
        v["wx"][:] = _glorot(rng, v["wx"].shape, f, h)
        v["wh"][:] = _glorot(rng, v["wh"].shape, h, h)
        v["lstm_b"][:] = 0.0
        v["lstm_b"][h:2 * h] = 1.0  # forget gate
        scale = np.sqrt(self.config.power_budget / self.config.n_vehicles)
        v["fc_w"][:] = scale * _glorot(rng, v["fc_w"].shape, h, self.out_dim)
        v["fc_b"][:] = 0.0

    # ---- CNN features ------------------------------------------------------

    def features(self, rows: np.ndarray, conv: np.ndarray | None = None,
                 cache: dict | None = None) -> np.ndarray:
        """CNN features of real [..., M, 2] channel slices: kappa, then per
        slice a reshape to 4 x (M/4) x 2, conv, 2x2 max-pool and ReLU,
        flattened and concatenated along the axis before M.  [..., K, M, 2]
        rows give [..., K*M]; one M x 2 slice gives M.

        A given cache dict (training) receives what backward() needs, and
        the conv and pool run through kernels.conv2d3x3_same_fwd and
        kernels.maxpool2x2_fwd.  Without one (inference) the conv is
        kernels.conv_by_matrix with conv, the kernels.conv_matrix of the
        current filters (built here when None), and the pool is
        kernels.maxpool2x2, the same maxima without the index.  The arrays
        the kernels return are read, never written."""
        if rows.shape[-2:] != (self.m, 2):
            raise ValueError(f"expected (..., {self.m}, 2) slices, "
                             f"got {rows.shape}")
        v = self._views
        hgt, wd = CNN_ROWS, self.m // CNN_ROWS
        xs = self.kappa * np.asarray(rows, dtype=np.float64)
        x4 = np.ascontiguousarray(xs.reshape(-1, hgt, wd, 2))
        if cache is None:
            if conv is None:
                conv = kernels.conv_matrix(v["conv_w"], hgt, wd)
            p = kernels.maxpool2x2(kernels.conv_by_matrix(x4, conv,
                                                          v["conv_b"]))
        else:
            z = kernels.conv2d3x3_same_fwd(x4, v["conv_w"], v["conv_b"])
            p, idx = kernels.maxpool2x2_fwd(z)
            cache.update(x4=x4, mask=p > 0, idx=idx, pshape=z.shape)
        # ReLU is monotone, so it commutes with the max: pooling first
        # leaves 4x fewer entries to rectify, with the same outputs.
        feat = p.copy()
        feat *= feat > 0
        return feat.reshape(rows.shape[:-3] + (-1,))

    # ---- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray, want_cache: bool = False):
        """Batched forward pass.

        x: [Nb, tau, K, M, 2] raw input tensor (kappa applied here).
        Returns O [Nb, K, M, 2] and, optionally, the cache for backward().
        The LSTM runs from h = c = 0, one _lstm_cell per slot; the first
        skips h W_h^T and f * c, which add exact zeros.
        """
        nb = x.shape[0]
        if x.shape[1:] != (self.tau, self.k, self.m, 2):
            raise ValueError(f"bad input shape {x.shape}")
        v = self._views
        cache = {} if want_cache else None
        seq = self.features(x, cache=cache)
        gates = np.empty((self.tau, nb, 4 * self.hidden))
        tg, c, h = np.empty((3, self.tau, nb, self.hidden))
        with np.errstate(over="ignore"):   # see _lstm_cell
            for t in range(self.tau):
                np.matmul(seq[:, t, :], v["wx"].T, out=gates[t])
                if t:
                    gates[t] += h[t - 1] @ v["wh"].T
                gates[t] += v["lstm_b"]
                _lstm_cell(_cell_views(gates[t], tg[t], c[t], h[t],
                                       c[t - 1] if t else None))
        o = h[-1] @ v["fc_w"] + v["fc_b"]
        out = o.reshape(nb, self.k, self.m, 2)
        if not want_cache:
            return out
        cache.update(seq=seq, gates=gates, tg=tg, c=c, h=h, nb=nb)
        return out, cache

    def backward(self, g_out: np.ndarray, cache: dict) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. the flat parameter vector, given
        the loss gradient w.r.t. the network output [Nb, K, M, 2].  The
        cache's buffers are read, never written."""
        v = self._views
        nb, hh = cache["nb"], self.hidden
        gates, tg, c, h = cache["gates"], cache["tg"], cache["c"], cache["h"]
        go = g_out.reshape(nb, self.out_dim)
        g_fc_w = h[-1].T @ go
        g_fc_b = go.sum(axis=0)
        gh = go @ v["fc_w"].T
        gc = np.zeros_like(gh)
        g_wx = np.zeros_like(v["wx"])
        g_wh = np.zeros_like(v["wh"])
        g_lb = np.zeros_like(v["lstm_b"])
        gseq = np.empty((nb, self.tau, self.feat))
        dgates = np.empty((nb, 4 * hh))
        d_i, d_f, d_g, d_o = (dgates[:, j * hh:(j + 1) * hh] for j in range(4))
        for t in range(self.tau - 1, -1, -1):
            gi, gf, go_ = (gates[t, :, j * hh:(j + 1) * hh] for j in (0, 1, 3))
            gg, tc = tg[t], np.tanh(c[t])
            np.multiply(gh * tc * go_, 1.0 - go_, out=d_o)
            gc = gc + gh * go_ * (1.0 - tc * tc)
            np.multiply(gc * gg * gi, 1.0 - gi, out=d_i)
            np.multiply(gc * gi, 1.0 - gg * gg, out=d_g)
            # at t = 0, c_old = h_old = 0: no forget-gate gradient, nothing
            # added to g_wh and no step reads gh or gc
            if t:
                np.multiply(gc * c[t - 1] * gf, 1.0 - gf, out=d_f)
                g_wh += dgates.T @ h[t - 1]
                gh = dgates @ v["wh"]
                gc = gc * gf
            else:
                d_f.fill(0.0)
            g_wx += dgates.T @ cache["seq"][:, t, :]
            g_lb += dgates.sum(axis=0)
            gseq[:, t, :] = dgates @ v["wx"]
        # gradient of the pooled ReLU, in the mask's batch-innermost layout
        mask = cache["mask"]
        gp = np.empty_like(mask, dtype=np.float64)
        gp[...] = gseq.reshape(mask.shape)
        gp *= mask
        gz = kernels.maxpool2x2_bwd(cache["idx"], gp, cache["pshape"])
        g_cw, g_cb = kernels.conv2d3x3_same_bwd(cache["x4"], v["conv_w"], gz)
        return self._flat_grad({
            "conv_w": g_cw, "conv_b": g_cb, "wx": g_wx, "wh": g_wh,
            "lstm_b": g_lb, "fc_w": g_fc_w, "fc_b": g_fc_b})

    # ---- inference ---------------------------------------------------------

    def stream(self, lead: tuple = ()) -> "HCLStream":
        """Decisions over one episode, or over the episodes of the leading
        shape lead in lockstep, one slot at a time (see HCLStream)."""
        return HCLStream(self, lead)

    def predict(self, history: np.ndarray) -> np.ndarray:
        """[K, N_t] beams, row k vehicle k's, for one [tau, K, M] complex
        history of estimated channels, oldest slot first."""
        if history.shape != (self.tau, self.k, self.m):
            raise ValueError(f"expected a ({self.tau}, {self.k}, {self.m}) "
                             f"history, got {history.shape}")
        stream = self.stream()
        with np.errstate(over="ignore"):   # see _lstm_cell
            for rows in history:
                w = stream.push(rows)
        return w


def _sigmoid_(x: np.ndarray) -> None:
    """The logistic sigmoid 1 / (1 + exp(-x)), in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


class _Cell(NamedTuple):
    """The buffer views one _lstm_cell update works on: the [..., 4H] gate
    buffer and its i, g and o columns, the tg, c and h outputs, and for the
    rows that carry a state, their forget gates, old cell state and rows of
    c and h (the last four None where no row carries one)."""
    gates: np.ndarray
    i: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tg: np.ndarray
    c: np.ndarray
    h: np.ndarray
    f: np.ndarray | None
    c_old: np.ndarray | None
    c_carried: np.ndarray | None
    h_carried: np.ndarray | None


def _cell_views(gates, tg, c, h, c_old=None, skip=0) -> _Cell:
    """The _Cell of a [..., 4H] gate buffer and [..., H] tg, c and h
    buffers whose rows from skip on carry the cell state c_old (None for
    c_old = 0)."""
    hh = c.shape[-1]
    carry = c_old is not None
    return _Cell(gates, gates[..., :hh], gates[..., 2 * hh:3 * hh],
                 gates[..., 3 * hh:], tg, c, h,
                 gates[skip:, ..., hh:2 * hh] if carry else None, c_old,
                 c[skip:] if carry else None, h[skip:] if carry else None)


def _lstm_cell(s: _Cell) -> None:
    """The LSTM cell update that HCLNet.forward and HCLStream.push share,
    in place in the buffers of s, from the gate pre-activations: tg =
    tanh(g) (tg may be c itself), one sigmoid over the whole contiguous
    gate buffer, c = i * tg, plus f * c_old on the carried rows (their h
    rows hold that product until h is written), then h = o * tanh(c).

    exp(-x) overflows to inf for a gate below -709, whose sigmoid is then
    exactly 0, so the caller holds np.errstate(over="ignore") around its
    loop of updates; the sigmoid of the g columns is never read."""
    np.tanh(s.g, out=s.tg)
    _sigmoid_(s.gates)
    np.multiply(s.tg, s.i, out=s.c)
    if s.c_old is not None:
        np.multiply(s.f, s.c_old, out=s.h_carried)
        np.add(s.c_carried, s.h_carried, out=s.c_carried)
    np.tanh(s.c, out=s.h)
    np.multiply(s.h, s.o, out=s.h)


class HCLStream:
    """HCL-Net decisions over one episode, or R episodes in lockstep, one
    slot at a time.

    push() runs the CNN on the new slot's K rows of each episode only and
    takes that slot's LSTM input product x_t W_x^T, as the [R, 4H] product
    of the batched forward() on the R episodes' windows (R = 1 for one
    episode).  Up to tau windows are in flight per episode: the one
    starting at this slot and the tau - 1 started before it.  Their (h, c)
    states live in an age-ordered [tau, R, H] ring, row j the window that
    started j slots ago, and two ring pairs alternate: a push reads one and
    writes the other a row older.  Only the carried windows, rows
    1 .. tau - 1 of the new ring, take h W_h^T, each as an [R, H] block; row
    0 is x W_x^T + b, as forward() at t = 0.  forward()'s _lstm_cell then
    updates all live rows at once in a preallocated gate buffer, with c
    itself as tg, so the beams have the bits of forward() on the same R
    windows.  Row tau - 1, the window started tau - 1 slots ago, then has
    its tau steps and feeds the FC layer.  The conv matrix is built and the
    weights are bound once, at creation, so a stream must not outlive a
    change of the weights.
    """

    def __init__(self, net: HCLNet, lead: tuple = ()):
        v = net._views
        self.net = net
        self._shape = tuple(lead) + (net.k, net.m)   # of the pushed rows
        self._conv = kernels.conv_matrix(v["conv_w"], CNN_ROWS,
                                         net.m // CNN_ROWS)
        self._wx_t, self._wh_t = v["wx"].T, v["wh"].T
        self._lstm_b, self._fc_w, self._fc_b = v["lstm_b"], v["fc_w"], v["fc_b"]
        r, hh = math.prod(lead), net.hidden
        # [pair, h or c, age, R, H]: pair n % 2 holds the states after slot n
        self._rings = np.zeros((2, 2, net.tau, r, hh))
        self._gates = np.empty((net.tau, r, 4 * hh))
        # the views of a push once tau windows are in flight, by slot parity
        self._full = [self._step(n, net.tau) for n in (0, 1)]
        self._n = 0   # slots pushed so far

    def _step(self, n: int, live: int) -> tuple[_Cell, np.ndarray]:
        """The cell views that the push of slot n works on, with live
        windows in flight after it, and the previous ring's h rows of the
        carried windows."""
        (h_old, c_old), (h, c) = self._rings[(n + 1) % 2], self._rings[n % 2]
        cell = _cell_views(self._gates[:live], c[:live], c[:live], h[:live],
                           c_old[:live - 1] if live > 1 else None, skip=1)
        return cell, h_old[:live - 1]

    def push(self, rows: np.ndarray) -> np.ndarray | None:
        """Take the next slot's complex estimated channels, [K, M] for one
        episode or the stream's leading shape plus [K, M]; return the beams
        of that shape for the windows of the last tau slots, or None while
        fewer than tau slots are in.  The beams are a new array each push.
        The caller holds np.errstate(over="ignore") (see _lstm_cell)."""
        net, n = self.net, self._n
        if rows.shape != self._shape:
            raise ValueError(f"expected {self._shape} rows, "
                             f"got {rows.shape}")
        pairs = np.ascontiguousarray(rows, dtype=complex).view(float)
        x = net.features(pairs.reshape(rows.shape + (2,)), self._conv)
        self._n += 1
        # live windows after this push: the new one and the carried ones
        s, h_old = (self._full[n % 2] if n >= net.tau - 1
                    else self._step(n, n + 1))
        # row 0 x W_x^T + b, the carried rows (h W_h^T + x W_x^T) + b
        first, carried = s.gates[0], s.gates[1:]
        np.matmul(x.reshape(-1, net.feat), self._wx_t, out=first)
        if s.c_old is not None:
            np.matmul(h_old, self._wh_t, out=carried)
            np.add(carried, first, out=carried)
        np.add(s.gates, self._lstm_b, out=s.gates)
        _lstm_cell(s)
        if n < net.tau - 1:
            return None
        o = s.h[-1] @ self._fc_w
        o += self._fc_b
        return o.view(complex).reshape(rows.shape)


class NaiveNet(_FlatParams):
    """FC baseline: (angle, distance) of the last slot -> beamforming matrix.

    Two ReLU hidden layers of width 128; distances are divided by 100 m on
    input to keep features O(1).
    """

    KIND = "naive"
    HIDDEN = 128
    DIST_SCALE = 100.0

    def __init__(self, config: SimConfig):
        self.config = config
        self.k = config.n_vehicles
        self.m = config.n_tx
        self.in_dim = 2 * self.k
        self.out_dim = 2 * self.k * self.m
        hdim = self.HIDDEN
        self._layout([
            ("w1", (self.in_dim, hdim)), ("b1", (hdim,)),
            ("w2", (hdim, hdim)), ("b2", (hdim,)),
            ("w3", (hdim, self.out_dim)), ("b3", (self.out_dim,)),
        ])

    def init_params(self, rng: np.random.Generator) -> None:
        v = self._views
        h = self.HIDDEN
        v["w1"][:] = _glorot(rng, v["w1"].shape, self.in_dim, h)
        v["w2"][:] = _glorot(rng, v["w2"].shape, h, h)
        scale = np.sqrt(self.config.power_budget / self.config.n_vehicles)
        v["w3"][:] = scale * _glorot(rng, v["w3"].shape, h, self.out_dim)
        for b in ("b1", "b2", "b3"):
            v[b][:] = 0.0

    def features(self, thetas: np.ndarray, dists: np.ndarray) -> np.ndarray:
        """Input features for batches of [Nb, K] angle/distance estimates."""
        return np.concatenate([thetas, dists / self.DIST_SCALE], axis=1)

    def forward(self, x: np.ndarray, want_cache: bool = False):
        v = self._views
        a1 = x @ v["w1"]
        a1 += v["b1"]
        np.maximum(a1, 0.0, out=a1)
        a2 = a1 @ v["w2"]
        a2 += v["b2"]
        np.maximum(a2, 0.0, out=a2)
        o = a2 @ v["w3"]
        o += v["b3"]
        out = o.reshape(x.shape[0], self.k, self.m, 2)
        if not want_cache:
            return out
        return out, {"x": x, "a1": a1, "a2": a2}

    def backward(self, g_out: np.ndarray, cache: dict) -> np.ndarray:
        # a ReLU output is > 0 exactly where its input is, so the
        # activations give the backward masks
        v = self._views
        go = g_out.reshape(g_out.shape[0], self.out_dim)
        g_w3 = cache["a2"].T @ go
        g_b3 = go.sum(axis=0)
        ga2 = go @ v["w3"].T
        ga2 *= cache["a2"] > 0
        g_w2 = cache["a1"].T @ ga2
        g_b2 = ga2.sum(axis=0)
        ga1 = ga2 @ v["w2"].T
        ga1 *= cache["a1"] > 0
        g_w1 = cache["x"].T @ ga1
        g_b1 = ga1.sum(axis=0)
        return self._flat_grad({"w1": g_w1, "b1": g_b1, "w2": g_w2,
                                "b2": g_b2, "w3": g_w3, "b3": g_b3})


_MODEL_KINDS = {HCLNet.KIND: HCLNet, NaiveNet.KIND: NaiveNet}


def load_model(path: str, config: SimConfig):
    """The HCL-Net or naive-FC model saved at path, for a run under config;
    a ValueError naming path if its recorded config is not one, differs
    from config (check_same_config; power_budget may differ, so one model
    serves every point of a power sweep), it has no float64 params array
    or float kappa, or its parameters or kappa are not finite."""
    meta, arrays = load_container(path)
    kind = meta.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        saved = SimConfig.from_dict(meta.get("config"))
    except ValueError as exc:
        raise ValueError(f"{path}: bad recorded config: {exc}") from None
    check_same_config(saved, config, f"{path}: model saved",
                      exempt=("power_budget",))
    net = _MODEL_KINDS[kind](config)
    params, kappa = arrays.get("params"), meta.get("kappa")
    if params is None or params.dtype != np.float64:
        raise ValueError(f"{path}: no float64 params array")
    if params.shape != net.params.shape:
        raise ValueError(f"{path}: parameter count mismatch")
    if not isinstance(kappa, float):   # the saver writes float(kappa)
        raise ValueError(f"{path}: kappa {kappa!r} is not a float")
    net.kappa = kappa
    if not (np.isfinite(params).all() and np.isfinite(net.kappa)):
        raise ValueError(f"{path}: non-finite model parameters")
    net.params[:] = params
    return net
