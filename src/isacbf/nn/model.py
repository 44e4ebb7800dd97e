"""The predictive beamforming networks.

HCLNet: per-vehicle CNN feature extraction on each history slot, temporal
LSTM over the window, and a linear output layer producing the real/imaginary
parts of the beamforming matrix.  All parameters live in one flat float64
vector; the structured weights are views into it, and gradients come from an
explicit reverse pass checked against finite differences in the tests.

NaiveNet: the fully-connected baseline mapping the last slot's estimated
(angle, distance) pairs straight to a beamforming matrix.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..config import SimConfig
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


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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

        A given cache dict receives what backward() needs, from the traced
        kernels.  Without one (inference) the conv is the product with conv,
        the kernels.conv_matrix of the current filters (built here when
        None), in the batch-innermost [H, W, F, B] layout of
        kernels.conv_by_matrix, and the pool maxima are one reduction over
        that layout, with the same bits."""
        if rows.shape[-2:] != (self.m, 2):
            raise ValueError(f"expected (..., {self.m}, 2) slices, "
                             f"got {rows.shape}")
        v = self._views
        hgt, wd = CNN_ROWS, self.m // CNN_ROWS
        xs = self.kappa * np.asarray(rows, dtype=np.float64)
        # ReLU is monotone, so it commutes with the max: pooling first
        # leaves 4x fewer entries to rectify, with the same outputs.
        if cache is None:
            if conv is None:
                conv = kernels.conv_matrix(v["conv_w"], hgt, wd)
            bsz = xs.size // (2 * self.m)
            z = conv.T @ xs.reshape(bsz, -1).T
            z = z.reshape(-1, CONV_FILTERS, bsz)
            z += v["conv_b"][:, None]
            p = z.reshape(hgt // 2, 2, wd // 2, 2, CONV_FILTERS, bsz).max(
                axis=(1, 3))
            p *= p > 0
            return p.reshape(-1, bsz).T.reshape(rows.shape[:-3] + (-1,))
        x4 = np.ascontiguousarray(xs.reshape(-1, hgt, wd, 2))
        z = kernels.conv2d3x3_same_fwd(x4, v["conv_w"], v["conv_b"])
        p, idx = kernels.maxpool2x2_fwd(z)
        mask = p > 0
        feat = p.reshape(rows.shape[:-3] + (-1,))
        feat *= mask.reshape(feat.shape)
        cache.update(x4=x4, mask=mask, idx=idx, pshape=z.shape)
        return feat

    # ---- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray, want_cache: bool = False):
        """Batched forward pass.

        x: [Nb, tau, K, M, 2] raw input tensor (kappa applied here).
        Returns O [Nb, K, M, 2] and, optionally, the cache for backward().
        """
        nb = x.shape[0]
        if x.shape[1:] != (self.tau, self.k, self.m, 2):
            raise ValueError(f"bad input shape {x.shape}")
        v = self._views
        cache = {} if want_cache else None
        seq = self.features(x, cache=cache)
        steps = [] if want_cache else None
        h = self._lstm((seq[:, t, :] @ v["wx"].T for t in range(self.tau)),
                       nb, steps)
        o = h @ v["fc_w"] + v["fc_b"]
        out = o.reshape(nb, self.k, self.m, 2)
        if not want_cache:
            return out
        cache.update(seq=seq, steps=steps, h_final=h, nb=nb)
        return out, cache

    def _lstm(self, xw, nb: int, steps: list | None = None) -> np.ndarray:
        """The [nb, hidden] last hidden state of the LSTM run from h = c = 0
        over the per-slot input products x_t W_x^T in xw, each [nb, 4H].
        The first step skips h W_h^T and f * c, which add exact zeros.  A
        given steps list receives each step's (h_prev, c_prev, i, f, g, o,
        tanh c) for backward()."""
        wh_t, b = self._views["wh"].T, self._views["lstm_b"]
        h = c = np.zeros((nb, self.hidden))
        with np.errstate(over="ignore"):   # see _cell
            for t, xwt in enumerate(xw):
                gi, gf, gg, go, tc, c_new = self._cell(
                    xwt + h @ wh_t + b if t else xwt + b, c if t else None)
                if steps is not None:
                    steps.append((h, c, gi, gf, gg, go, tc))
                h, c = go * tc, c_new
        return h

    def _cell(self, gates: np.ndarray, c: np.ndarray | None):
        """One LSTM cell update of the [..., 4H] gate pre-activations and
        the cell state c (None for c = 0): the gates i, f, g, o, tanh of the
        new cell state, and that state.  One sigmoid covers all four gates.

        exp(-x) overflows to inf for a gate below -709, whose sigmoid is
        then exactly 0, so the caller holds np.errstate(over="ignore"),
        once around its loop of cell steps; the cell-input gate's sigmoid
        is never read."""
        hh = self.hidden
        s = _sigmoid(gates)
        gi, gf, go = s[..., :hh], s[..., hh:2 * hh], s[..., 3 * hh:]
        gg = np.tanh(gates[..., 2 * hh:3 * hh])
        c_new = gi * gg if c is None else gf * c + gi * gg
        return gi, gf, gg, go, np.tanh(c_new), c_new

    def backward(self, g_out: np.ndarray, cache: dict) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. the flat parameter vector, given
        the loss gradient w.r.t. the network output [Nb, K, M, 2]."""
        v = self._views
        nb = cache["nb"]
        go = g_out.reshape(nb, self.out_dim)
        g_fc_w = cache["h_final"].T @ go
        g_fc_b = go.sum(axis=0)
        gh = go @ v["fc_w"].T
        gc = np.zeros_like(gh)
        g_wx = np.zeros_like(v["wx"])
        g_wh = np.zeros_like(v["wh"])
        g_lb = np.zeros_like(v["lstm_b"])
        gseq = np.empty((nb, self.tau, self.feat))
        for t in range(self.tau - 1, -1, -1):
            h_prev, c_prev, gi, gf, gg, go_, tc = cache["steps"][t]
            d_o = gh * tc
            gc = gc + gh * go_ * (1.0 - tc * tc)
            d_i = gc * gg
            d_g = gc * gi
            d_f = gc * c_prev
            gc_prev = gc * gf
            dgates = np.concatenate([
                d_i * gi * (1.0 - gi),
                d_f * gf * (1.0 - gf),
                d_g * (1.0 - gg * gg),
                d_o * go_ * (1.0 - go_),
            ], axis=1)
            g_wx += dgates.T @ cache["seq"][:, t, :]
            g_lb += dgates.sum(axis=0)
            gseq[:, t, :] = dgates @ v["wx"]
            # at t = 0, h_prev = 0 adds nothing to g_wh and no step reads gh
            if t:
                g_wh += dgates.T @ h_prev
                gh = dgates @ v["wh"]
            gc = gc_prev
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
        with np.errstate(over="ignore"):   # see _cell
            for rows in history:
                w = stream.push(rows)
        return w


class _Step(NamedTuple):
    """The buffer views of one HCLStream push: the [live, R, 4H] gate
    buffer (first, the new window's row; carried, the others') and its gate
    columns, the previous ring's states of the carried windows, the new
    ring's live rows, and its oldest row, which feeds the FC layer."""
    gates: np.ndarray
    first: np.ndarray
    carried: np.ndarray
    h_old: np.ndarray
    c_old: np.ndarray
    i: np.ndarray
    f: np.ndarray        # of the carried windows only
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    h: np.ndarray
    c_carried: np.ndarray
    h_carried: np.ndarray
    out: np.ndarray


def _sigmoid_(x: np.ndarray) -> None:
    """_sigmoid in place, in its order of operations and so with its bits."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


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
    0 is x W_x^T + b, as forward() at t = 0.  The cell update runs in place
    in a preallocated gate buffer, in _cell's order of operations, so the
    beams have the bits of forward() on the same R windows.  Row tau - 1,
    the window started tau - 1 slots ago, then has its tau steps and feeds
    the FC layer.  The conv matrix is built and the weights are bound once,
    at creation, so a stream must not outlive a change of the weights.
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

    def _step(self, n: int, live: int) -> _Step:
        """The views that the push of slot n works on, with live windows
        in flight after it."""
        hh, g = self.net.hidden, self._gates[:live]
        (h_old, c_old), (h, c) = self._rings[(n + 1) % 2], self._rings[n % 2]
        return _Step(
            gates=g, first=g[0], carried=g[1:], h_old=h_old[:live - 1],
            c_old=c_old[:live - 1], i=g[..., :hh], f=g[1:, :, hh:2 * hh],
            g=g[..., 2 * hh:3 * hh], o=g[..., 3 * hh:], c=c[:live],
            h=h[:live], c_carried=c[1:live], h_carried=h[1:live], out=h[-1])

    def push(self, rows: np.ndarray) -> np.ndarray | None:
        """Take the next slot's complex estimated channels, [K, M] for one
        episode or the stream's leading shape plus [K, M]; return the beams
        of that shape for the windows of the last tau slots, or None while
        fewer than tau slots are in.  The beams are a new array each push.
        The caller holds np.errstate(over="ignore") (see HCLNet._cell)."""
        net, n = self.net, self._n
        if rows.shape != self._shape:
            raise ValueError(f"expected {self._shape} rows, "
                             f"got {rows.shape}")
        pairs = np.ascontiguousarray(rows, dtype=complex).view(float)
        x = net.features(pairs.reshape(rows.shape + (2,)), self._conv)
        self._n += 1
        # live windows after this push: the new one and the carried ones
        s = self._full[n % 2] if n >= net.tau - 1 else self._step(n, n + 1)
        # row 0 x W_x^T + b, the carried rows (h W_h^T + x W_x^T) + b
        np.matmul(x.reshape(-1, net.feat), self._wx_t, out=s.first)
        carried = len(s.h_old) > 0
        if carried:
            np.matmul(s.h_old, self._wh_t, out=s.carried)
            np.add(s.carried, s.first, out=s.carried)
        np.add(s.gates, self._lstm_b, out=s.gates)
        # _cell in place, every output contiguous: c = f * c + i * g (the
        # carried h rows hold f * c until h is written), then h = o * tanh(c)
        np.tanh(s.g, out=s.c)
        _sigmoid_(s.gates)
        np.multiply(s.c, s.i, out=s.c)
        if carried:
            np.multiply(s.f, s.c_old, out=s.h_carried)
            np.add(s.c_carried, s.h_carried, out=s.c_carried)
        np.tanh(s.c, out=s.h)
        np.multiply(s.h, s.o, out=s.h)
        if n < net.tau - 1:
            return None
        o = s.out @ self._fc_w
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



# config fields that fix a model's weight shapes or its input window
_SHAPE_FIELDS = ("n_tx", "n_vehicles", "history_len")


_MODEL_KINDS = {HCLNet.KIND: HCLNet, NaiveNet.KIND: NaiveNet}


def load_model(path: str, config: SimConfig):
    """The HCL-Net or naive-FC model saved at path, for a run under config;
    a ValueError naming path if its parameters or kappa are not finite."""
    meta, arrays = load_container(path)
    kind = meta.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    saved = meta.get("config", {})
    for field in _SHAPE_FIELDS:
        if saved.get(field) != getattr(config, field):
            raise ValueError(
                f"{path}: model saved with {field}={saved.get(field)}, "
                f"the run has {field}={getattr(config, field)}")
    net = _MODEL_KINDS[kind](config)
    if arrays["params"].shape != net.params.shape:
        raise ValueError(f"{path}: parameter count mismatch")
    net.kappa = float(meta["kappa"])
    if not (np.isfinite(arrays["params"]).all() and np.isfinite(net.kappa)):
        raise ValueError(f"{path}: non-finite model parameters")
    net.params[:] = arrays["params"]
    return net
