"""Reference discrete harmonic fill, used to score `transforms.inpaint_fill`.

The unknown pixels u solve L_uu u = b on the 4-neighbour grid graph: each
unknown pixel equals the mean of its in-grid neighbours, known pixels are
Dirichlet data. This is the fixed point `inpaint_fill` iterates towards.
Here it is solved with plain conjugate gradient to a relative residual of
1e-12, so the difference between the two is the program's solver error.
"""

from __future__ import annotations

import numpy as np

REL_RESIDUAL = 1e-12


def _degree(h: int, w: int) -> np.ndarray:
    deg = np.full((h, w), 4.0)
    deg[0, :] -= 1
    deg[-1, :] -= 1
    deg[:, 0] -= 1
    deg[:, -1] -= 1
    return deg


def _neighbour_sum(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    out[1:, :] += x[:-1, :]
    out[:-1, :] += x[1:, :]
    out[:, 1:] += x[:, :-1]
    out[:, :-1] += x[:, 1:]
    return out


def harmonic_fill(canvas: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Fill the unknown pixels of a (c, h, w) canvas with the harmonic solution.

    Raises RuntimeError if CG does not reach the residual bound.
    """
    known = np.asarray(known, dtype=bool)
    if not known.any():
        raise ValueError("harmonic fill needs at least one known pixel")
    free = ~known
    deg = _degree(*known.shape)
    out = np.asarray(canvas, dtype=np.float64).copy()

    def apply(x):  # L_uu restricted to the unknown pixels, zero elsewhere
        return np.where(free, deg * x - _neighbour_sum(x), 0.0)

    for ch in range(out.shape[0]):
        b = np.where(free, _neighbour_sum(np.where(known, out[ch], 0.0)), 0.0)
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = float(np.sum(r * r))
        target = REL_RESIDUAL ** 2 * rr
        iters = 0
        while rr > target:
            if iters >= 20 * free.sum() + 100:
                raise RuntimeError("conjugate gradient did not converge")
            ap = apply(p)
            alpha = rr / float(np.sum(p * ap))
            x += alpha * p
            r -= alpha * ap
            rr_new = float(np.sum(r * r))
            p = r + (rr_new / rr) * p
            rr = rr_new
            iters += 1
        out[ch][free] = x[free]
    return out
