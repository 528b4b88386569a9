"""Real-time fluid simulation (Stam, GDC 2003) — instrumented.

Three-kernel decomposition of the stable-fluids step:

* ``diffuse`` — viscous diffusion of velocity and density (Jacobi
  relaxation);
* ``project`` — pressure projection making the velocity divergence-free
  (Poisson solve + gradient subtraction), run before *and* after
  advection as in Stam's solver;
* ``advect`` — semi-Lagrangian transport of velocity and density.

The kernels exchange whole fields every time step in a cycle
(diffuse → project → advect → project → diffuse …), so no kernel pair is
exclusive and Algorithm 1 maps *everything* onto the NoC — the paper's
Table IV reports exactly "NoC" as the Fluid solution. The stateful
iteration also rules out streaming, so no pipelining applies.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..profiling import AddressSpace, Tracer
from .base import Application, KernelTraits, require_int

#: Jacobi sweeps for the diffusion and pressure solves.
RELAX = 20
#: Solver time step and viscosity/diffusion rates.
DT = 0.1
VISC = 0.0002
DIFF = 0.0001


def jacobi(x0: np.ndarray, b: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Jacobi relaxation for ``(I - alpha ∇²) x = b``-style systems.

    Each sweep sets every interior cell to
    ``(b + alpha * (((up + down) + left) + right)) / beta`` and leaves the
    boundary rows and columns as they are in ``x0``. The sweep runs over
    the flattened array, so every neighbour is a contiguous slice: the
    interior of rows ``1..n-2`` is the flat range ``[m+1, n·m-m-1)``,
    with the neighbours at offsets ``±m`` and ``±1``. That range also
    covers the first and last column of those rows (a row's last cell
    sits next to the following row's first), so both columns are put
    back from ``x0`` after each sweep. Every interior element comes from
    the same IEEE operations, in the same order, as the expression above
    evaluated over 2-D slices. ``x0`` and ``b`` share one dtype, and
    ``alpha``/``beta`` are Python numbers, so the sweep runs in that dtype.
    """
    n, m = x0.shape
    src = np.array(x0, order="C")
    if n < 3 or m < 3:
        return src  # no interior cell
    dst = src.copy()
    x, y = src.reshape(-1), dst.reshape(-1)
    lo, hi = m + 1, n * m - m - 1
    rhs = np.ascontiguousarray(b).reshape(-1)[lo:hi]
    acc = np.empty(hi - lo, dtype=src.dtype)
    for _ in range(RELAX):
        np.add(x[lo - m:hi - m], x[lo + m:hi + m], out=acc)
        np.add(acc, x[lo - 1:hi - 1], out=acc)
        np.add(acc, x[lo + 1:hi + 1], out=acc)
        np.multiply(alpha, acc, out=acc)
        np.add(rhs, acc, out=acc)
        np.divide(acc, beta, out=y[lo:hi])
        dst[1:-1, 0] = x0[1:-1, 0]
        dst[1:-1, -1] = x0[1:-1, -1]
        src, dst, x, y = dst, src, y, x
    return src


def diffuse_field(field: np.ndarray, rate: float) -> np.ndarray:
    """Implicit diffusion of one field."""
    a = DT * rate * field.shape[0] * field.shape[1]
    return jacobi(field, field, a, 1 + 4 * a)


class AdvectionWeights:
    """Semi-Lagrangian back-trace of one velocity field.

    Each cell is traced back along ``(u, v)`` and its bilinear gather
    (four flat source indices and the weights ``1-fy``, ``fy``, ``1-fx``,
    ``fx``) is computed once; :meth:`apply` then moves any number of
    fields with it. A tap's term stays ``(f·wy)·wx``: pre-multiplying
    the two weights would round differently.
    """

    __slots__ = ("_taps",)

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        n, m = u.shape
        ys = np.arange(n, dtype=np.float64)[:, None]
        xs = np.arange(m, dtype=np.float64)[None, :]
        back_y = np.clip(ys - DT * n * v, 0.5, n - 1.5)
        back_x = np.clip(xs - DT * m * u, 0.5, m - 1.5)
        y0 = np.floor(back_y).astype(int)
        x0 = np.floor(back_x).astype(int)
        fy, fx = back_y - y0, back_x - x0
        gy, gx = 1 - fy, 1 - fx
        i = y0 * m + x0
        self._taps = (
            (i, gy, gx), (i + 1, gy, fx), (i + m, fy, gx), (i + m + 1, fy, fx)
        )

    def apply(self, field: np.ndarray) -> np.ndarray:
        """``field`` moved along the traced velocity (same shape)."""
        flat = np.ascontiguousarray(field).reshape(-1)
        out = None
        for idx, wy, wx in self._taps:
            term = flat.take(idx) * wy
            term *= wx
            if out is None:
                out = term
            else:
                out += term
        return out


def advect_field(field: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Semi-Lagrangian advection: trace back along the velocity field."""
    return AdvectionWeights(u, v).apply(field)


def project_fields(u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pressure projection: return a (near) divergence-free velocity."""
    n = u.shape[0]
    div = np.zeros_like(u)
    div[1:-1, 1:-1] = -0.5 * (
        (u[1:-1, 2:] - u[1:-1, :-2]) + (v[2:, 1:-1] - v[:-2, 1:-1])
    ) / n
    p = jacobi(np.zeros_like(u), div, 1.0, 4.0)
    u2, v2 = u.copy(), v.copy()
    u2[1:-1, 1:-1] -= 0.5 * n * (p[1:-1, 2:] - p[1:-1, :-2])
    v2[1:-1, 1:-1] -= 0.5 * n * (p[2:, 1:-1] - p[:-2, 1:-1])
    return u2, v2


def divergence(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Interior divergence of a velocity field."""
    return 0.5 * (
        (u[1:-1, 2:] - u[1:-1, :-2]) + (v[2:, 1:-1] - v[:-2, 1:-1])
    )


class FluidApp(Application):
    """Instrumented stable-fluids solver over a synthetic scene."""

    name = "fluid"

    def __init__(self, scale: int = 1, seed: int = 2014, steps: int = 2) -> None:
        super().__init__(scale=scale, seed=seed)
        self.size = 64 * self.scale
        self.steps = require_int("steps", steps, 1)

    def kernel_traits(self) -> Dict[str, KernelTraits]:
        return {
            "diffuse": KernelTraits(),
            "project": KernelTraits(),
            "advect": KernelTraits(),
        }

    def execute(self, tracer: Tracer, space: AddressSpace) -> None:
        n = self.size
        # Iteration state (who wrote it last is what QUAD tracks).
        u_state = space.alloc("u_state", (n, n), np.float32)
        v_state = space.alloc("v_state", (n, n), np.float32)
        d_state = space.alloc("d_state", (n, n), np.float32)
        force_u = space.alloc("force_u", (n, n), np.float32)
        force_v = space.alloc("force_v", (n, n), np.float32)
        source_d = space.alloc("source_d", (n, n), np.float32)
        u_dif = space.alloc("u_dif", (n, n), np.float32)
        v_dif = space.alloc("v_dif", (n, n), np.float32)
        d_dif = space.alloc("d_dif", (n, n), np.float32)
        u_proj = space.alloc("u_proj", (n, n), np.float32)
        v_proj = space.alloc("v_proj", (n, n), np.float32)
        u_adv = space.alloc("u_adv", (n, n), np.float32)
        v_adv = space.alloc("v_adv", (n, n), np.float32)
        d_adv = space.alloc("d_adv", (n, n), np.float32)
        display = space.alloc("display", (n, n), np.float32)

        ys, xs = np.mgrid[0:n, 0:n] / n
        swirl_u = np.sin(2 * np.pi * ys) * 0.5
        swirl_v = np.cos(2 * np.pi * xs) * 0.5
        puff = np.exp(-(((xs - 0.5) ** 2 + (ys - 0.5) ** 2) / 0.02))

        with tracer.context("scene_setup"):
            u_state.store_full(np.zeros((n, n)))
            v_state.store_full(np.zeros((n, n)))
            d_state.store_full(puff)

        for _step in range(self.steps):
            with tracer.context("inject_forces"):
                force_u.store_full(swirl_u)
                force_v.store_full(swirl_v)
                source_d.store_full(0.1 * puff)

            with tracer.context("diffuse"):
                u = u_state.load_full().astype(np.float64)
                v = v_state.load_full().astype(np.float64)
                d = d_state.load_full().astype(np.float64)
                u += DT * force_u.load_full()
                v += DT * force_v.load_full()
                d += DT * source_d.load_full()
                u_dif.store_full(diffuse_field(u, VISC))
                v_dif.store_full(diffuse_field(v, VISC))
                d_dif.store_full(diffuse_field(d, DIFF))
                tracer.add_work(3.0 * RELAX * 6.0 * n * n)

            with tracer.context("project"):
                u2, v2 = project_fields(
                    u_dif.load_full().astype(np.float64),
                    v_dif.load_full().astype(np.float64),
                )
                u_proj.store_full(u2)
                v_proj.store_full(v2)
                tracer.add_work((RELAX + 2) * 6.0 * n * n)

            with tracer.context("advect"):
                uu = u_proj.load_full().astype(np.float64)
                vv = v_proj.load_full().astype(np.float64)
                trace = AdvectionWeights(uu, vv)
                u_adv.store_full(trace.apply(uu))
                v_adv.store_full(trace.apply(vv))
                d_adv.store_full(
                    trace.apply(d_dif.load_full().astype(np.float64))
                )
                tracer.add_work(3.0 * 14.0 * n * n)

            with tracer.context("project"):
                u2, v2 = project_fields(
                    u_adv.load_full().astype(np.float64),
                    v_adv.load_full().astype(np.float64),
                )
                u_state.store_full(u2)
                v_state.store_full(v2)
                tracer.add_work((RELAX + 2) * 6.0 * n * n)

            with tracer.context("diffuse"):
                # Density state hand-off for the next step lives with the
                # diffusion kernel's memory in the HW partitioning.
                d_state.store_full(d_adv.load_full())

            with tracer.context("render"):
                display.store_full(d_state.load_full())
                display.load_full()  # host reads the frame

    def verify(self, space: AddressSpace) -> None:
        u = space.get("u_state").data.astype(np.float64)
        v = space.get("v_state").data.astype(np.float64)
        d = space.get("d_state").data.astype(np.float64)
        if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(d).all()):
            raise AssertionError("fluid solver produced non-finite values")
        div = np.abs(divergence(u, v)).max()
        if div > 0.25:
            raise AssertionError(f"velocity far from divergence-free: {div:.3f}")
        if d.min() < -1e-6 or d.max() > 2.0:
            raise AssertionError("density left its physical range")
