"""KLT feature tracker (Shi & Tomasi / Lucas–Kanade) — instrumented.

Two-kernel decomposition:

* ``compute_gradients`` — spatial gradients of the reference frame;
* ``track_features`` — iterative Lucas–Kanade updates per feature.

The gradient arrays are consumed *only* by the tracker, and the tracker
receives kernel data *only* from the gradient kernel, so Algorithm 1
applies the shared-local-memory solution and nothing else — matching the
paper's Table IV, where KLT's solution is "SM" and the proposed system
costs exactly one crossbar more than the baseline. Neither kernel
streams (tracking iterates over a window around each feature), so no
pipelining applies.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..profiling import AddressSpace, Tracer
from .base import Application, KernelTraits

#: Ground-truth translation between the two synthetic frames (pixels).
TRUE_SHIFT = (1.5, -0.8)
#: Half-width of the tracking window.
WIN = 4
#: Lucas–Kanade iterations per feature.
ITERS = 6


def smooth_noise(rng: np.random.Generator, n: int, octaves: int = 3) -> np.ndarray:
    """Band-limited random texture (trackable, unlike white noise)."""
    img = np.zeros((n, n))
    for o in range(octaves):
        step = 2 ** (octaves - o + 1)
        coarse = rng.standard_normal((n // step + 2, n // step + 2))
        up = coarse.repeat(step, 0).repeat(step, 1)[:n, :n]
        img += up * (2.0 ** -o)
    img -= img.min()
    return 255.0 * img / img.max()


def bilinear_sample(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at fractional coordinates (clipped)."""
    h, w = img.shape
    ys = np.clip(ys, 0, h - 1.001)
    xs = np.clip(xs, 0, w - 1.001)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy, fx = ys - y0, xs - x0
    return (
        img[y0, x0] * (1 - fy) * (1 - fx)
        + img[y0, x0 + 1] * (1 - fy) * fx
        + img[y0 + 1, x0] * fy * (1 - fx)
        + img[y0 + 1, x0 + 1] * fy * fx
    )


def shift_frame(img: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """``img`` moved by (dy, dx): :func:`bilinear_sample` over the whole
    grid at ``(row − dy, col − dx)``, whose rows share ``y0``/``fy`` and
    whose columns share ``x0``/``fx``, so rows and columns are gathered
    separately. Each term keeps ``(v·(1−fy))·(1−fx)``: the same bytes."""
    h, w = img.shape
    ys = np.clip(np.arange(h) - dy, 0, h - 1.001)
    xs = np.clip(np.arange(w) - dx, 0, w - 1.001)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy, fx = (ys - y0)[:, None], xs - x0
    top, bottom = img[y0], img[y0 + 1]
    return (
        top[:, x0] * (1 - fy) * (1 - fx)
        + top[:, x0 + 1] * (1 - fy) * fx
        + bottom[:, x0] * fy * (1 - fx)
        + bottom[:, x0 + 1] * fy * fx
    )


def central_gradients(img: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference spatial gradients."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    gy[1:-1, :] = (img[2:, :] - img[:-2, :]) / 2.0
    return gx, gy


def lk_track(
    img1: np.ndarray,
    img2: np.ndarray,
    gx: np.ndarray,
    gy: np.ndarray,
    features: np.ndarray,
) -> np.ndarray:
    """Iterative Lucas–Kanade: track every feature from img1 into img2.

    All features advance together; one leaves the active set once its
    step is under 1e-3, and a feature whose window is degenerate (a
    singular structure tensor) is returned where it started.
    """
    features = features.astype(np.float64)
    offs = np.arange(-WIN, WIN + 1)
    oy, ox = (o.ravel() for o in np.meshgrid(offs, offs, indexing="ij"))
    wy = features[:, :1] + oy  # one row of window samples per feature
    wx = features[:, 1:] + ox
    t_gx = bilinear_sample(gx, wy, wx)
    t_gy = bilinear_sample(gy, wy, wx)
    template = bilinear_sample(img1, wy, wx)
    # Structure tensors in (y, x) order to match the displacement d.
    gxy = (t_gx * t_gy).sum(axis=1)
    g = np.stack(
        [(t_gy * t_gy).sum(axis=1), gxy, gxy, (t_gx * t_gx).sum(axis=1)], axis=1
    ).reshape(-1, 2, 2)
    d = np.zeros_like(features)
    # slogdet's sign is 0 exactly when LU meets a zero pivot, i.e. when
    # solve() would raise LinAlgError: such features never move.
    active = np.flatnonzero(np.linalg.slogdet(g)[0] != 0)
    for _ in range(ITERS):
        moved = bilinear_sample(
            img2, wy[active] + d[active, :1], wx[active] + d[active, 1:]
        )
        it = template[active] - moved
        b = np.stack(
            [(t_gy[active] * it).sum(axis=1), (t_gx[active] * it).sum(axis=1)],
            axis=1,
        )
        step = np.linalg.solve(g[active], b[..., None])[..., 0]
        d[active] += step
        active = active[~(np.abs(step).max(axis=1) < 1e-3)]  # NaN keeps going
    return features + d


class KltApp(Application):
    """Instrumented KLT tracker over a synthetic translated frame pair."""

    name = "klt"

    def __init__(self, scale: int = 1, seed: int = 2014) -> None:
        super().__init__(scale=scale, seed=seed)
        self.size = 128 * scale
        self.n_features = 48 * scale

    def kernel_traits(self) -> Dict[str, KernelTraits]:
        return {
            "compute_gradients": KernelTraits(),
            "track_features": KernelTraits(),
        }

    def execute(self, tracer: Tracer, space: AddressSpace) -> None:
        n = self.size
        frame1 = smooth_noise(self.rng, n)
        # Sampling frame1 at (p - shift) moves the content by +shift, so
        # features tracked from frame1 into frame2 displace by TRUE_SHIFT.
        frame2 = shift_frame(frame1, *TRUE_SHIFT)

        img1 = space.alloc("img1", (n, n), np.float32)
        img2 = space.alloc("img2", (n, n), np.float32)
        feats = space.alloc("features", (self.n_features, 2), np.float32)
        gx_buf = space.alloc("gx", (n, n), np.float32)
        gy_buf = space.alloc("gy", (n, n), np.float32)
        tracked = space.alloc("tracked", (self.n_features, 2), np.float32)

        with tracer.context("frame_capture"):
            img1.store_full(frame1)
            img2.store_full(frame2)
            # Feature selection on the host: a jittered grid away from
            # the borders (stands in for the Shi–Tomasi corner ranking).
            margin = WIN + 4
            grid = self.rng.uniform(margin, n - margin, (self.n_features, 2))
            feats.store_full(grid.astype(np.float32))

        with tracer.context("compute_gradients"):
            f1 = img1.load_full().astype(np.float64)
            gx, gy = central_gradients(f1)
            gx_buf.store_full(gx)
            gy_buf.store_full(gy)
            tracer.add_work(8.0 * n * n)

        with tracer.context("track_features"):
            f1 = img1.load_full().astype(np.float64)
            f2 = img2.load_full().astype(np.float64)
            gx = gx_buf.load_full().astype(np.float64)
            gy = gy_buf.load_full().astype(np.float64)
            pts = feats.load_full().reshape(-1, 2).astype(np.float64)
            result = lk_track(f1, f2, gx, gy, pts)
            tracked.store_full(result.astype(np.float32))
            win = 2 * WIN + 1
            tracer.add_work(20.0 * self.n_features * ITERS * win * win)

        with tracer.context("display"):
            tracked.load_full()  # host consumes the tracked positions

    def verify(self, space: AddressSpace) -> None:
        feats = space.get("features").data.astype(np.float64)
        tracked = space.get("tracked").data.astype(np.float64)
        disp = tracked - feats
        med = np.median(disp, axis=0)
        err = np.hypot(med[0] - TRUE_SHIFT[0], med[1] - TRUE_SHIFT[1])
        if err > 0.35:
            raise ConfigurationError(
                f"KLT failed to recover the shift: median {med}, "
                f"truth {TRUE_SHIFT}"
            )
