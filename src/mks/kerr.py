"""Monotone power nonlinearity |u|^q u and its implicit resolvent.

All maps act pointwise with the Euclidean C^6 norm.  Formulas:

    force(u)        = |u|^q u
    jacobian(u) v   = q |u|^{q-2} Re<u, v> u + |u|^q v
    hessian(u)(v,w) = q |u|^{q-2} ( (q-2) |u|^{-2} Re<u,w> Re<u,v> u
                                    + Re<w,v> u + Re<u,w> v + Re<u,v> w )

At points where u vanishes the derivative terms are continuously extended
by zero (justified by the |u|^q |v| and |u|^{q-1} |v|^2 growth bounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, UsageError
from .grid import PHYSICAL, Field6, _require_representation, inner_product, lp_norm, pointwise_norm


@dataclass(frozen=True)
class KerrExponent:
    """Power q > 0; strong mode restricts to q in (1, 2]."""

    q: float
    strong_mode: bool = False

    def __post_init__(self):
        if not self.q > 0:
            raise ConfigurationError(f"kerr exponent must be positive, got {self.q}")
        if self.strong_mode and not (1.0 < self.q <= 2.0):
            raise ConfigurationError(
                f"strong mode requires q in (1, 2], got {self.q}")


def _exponent(q) -> float:
    return float(q.q) if isinstance(q, KerrExponent) else float(q)


def _safe_power(mag: np.ndarray, e: float) -> np.ndarray:
    """mag**e with 0**e := 0 even for negative exponents."""
    if e >= 0:
        return mag**e
    out = np.zeros_like(mag)
    pos = mag > 0
    out[pos] = mag[pos] ** e
    return out


def _re_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise Re<a, b>_{C^6}, shape (n, n, n)."""
    return np.sum(a.real * b.real + a.imag * b.imag, axis=0)


def kerr_force(u: Field6, q, magnitude: np.ndarray | None = None) -> Field6:
    """|u|^q u, for one field or a stack; ``magnitude`` is pointwise_norm(u)
    when the caller has it."""
    _require_representation(u, PHYSICAL, "kerr_force")
    e = _exponent(q)
    mag = pointwise_norm(u) if magnitude is None else magnitude
    return u.with_data(np.expand_dims(mag ** e, -4) * u.data)


def kerr_jacobian_apply(u: Field6, v: Field6, q) -> Field6:
    _require_representation(u, PHYSICAL, "kerr_jacobian_apply")
    _require_representation(v, PHYSICAL, "kerr_jacobian_apply")
    e = _exponent(q)
    mag = pointwise_norm(u)
    out = _safe_power(mag, e) * v.data
    out += e * _safe_power(mag, e - 2.0) * _re_dot(u.data, v.data) * u.data
    return u.with_data(out)


def kerr_hessian_apply(u: Field6, v: Field6, w: Field6, q) -> Field6:
    e = _exponent(q)
    if e <= 1.0:
        raise ConfigurationError(
            f"second derivative needs q > 1, got {e}")
    for f in (u, v, w):
        _require_representation(f, PHYSICAL, "kerr_hessian_apply")
    mag = pointwise_norm(u)
    uv = _re_dot(u.data, v.data)
    uw = _re_dot(u.data, w.data)
    wv = _re_dot(w.data, v.data)
    base = e * _safe_power(mag, e - 2.0)
    # (q-2)|u|^{-2} Re<u,w> Re<u,v> u evaluated through unit-direction dots
    # to avoid the |u|^{q-4} intermediate
    inv_mag = _safe_power(mag, -1.0)
    out = base * (wv * u.data + uw * v.data + uv * w.data)
    out += (e - 2.0) * base * (uv * inv_mag) * (uw * inv_mag) * u.data
    return u.with_data(out)


def monotonicity_constant(q) -> float:
    return 2.0 ** (-_exponent(q))


def monotonicity_gap(u: Field6, v: Field6, q) -> float:
    """Re<force(v) - force(u), u - v> + 2^{-q} ||u - v||_{q+2}^{q+2}.

    Contract: nonpositive for every pair (up to rounding).
    """
    e = _exponent(q)
    diff = u.with_data(u.data - v.data)
    fdiff = v.with_data(kerr_force(v, e).data - kerr_force(u, e).data)
    cross = inner_product(fdiff, diff).real
    return cross + monotonicity_constant(e) * lp_norm(diff, e + 2.0) ** (e + 2.0)


def monotonicity_gap_scalars(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """Pointwise gap for batches of C^d vectors, shape (d, m) -> (m,).

    Oracle for the admissibility of the 2^{-q} constant: the returned gaps
    must all be <= 0 (to rounding).
    """
    e = _exponent(q)
    amag = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
    bmag = np.sqrt(np.sum(np.abs(b) ** 2, axis=0))
    fa = amag**e * a
    fb = bmag**e * b
    diff = a - b
    cross = np.sum(((fb - fa) * np.conj(diff)).real, axis=0)
    dmag = np.sqrt(np.sum(np.abs(diff) ** 2, axis=0))
    return cross + monotonicity_constant(e) * dmag ** (e + 2.0)


_NEWTON_ITERATIONS = 100
_BISECTION_ITERATIONS = 100
_RESIDUAL_FACTOR = 1e-13


def implicit_kerr_solve(w: Field6, dt: float, q) -> Field6:
    """Solve v + dt |v|^q v = w pointwise (resolvent of the monotone drift).

    Reduces to the scalar equation s + dt s^{q+1} = |w| along the direction
    w/|w|; Newton from s0 = |w| (globally convergent for this convex
    monotone residual), bisection fallback on [0, |w|].  Newton stops when
    every point it is given has converged, so a stack is solved path by
    path: each path's iterates do not depend on the rest of its batch.
    """
    _require_representation(w, PHYSICAL, "implicit_kerr_solve")
    if not dt > 0:
        raise UsageError(f"implicit_kerr_solve requires dt > 0, got {dt}")
    e = _exponent(q)
    r = pointwise_norm(w)
    if w.stacked:
        scale = np.stack([_radial_scale(rp, dt, e) for rp in r])
    else:
        scale = _radial_scale(r, dt, e)
    return w.with_data(np.expand_dims(scale, -4) * w.data)


def _radial_scale(r: np.ndarray, dt: float, e: float) -> np.ndarray:
    """s/r with s + dt s^{e+1} = r at every point of one path (1 where r = 0)."""
    s = r.copy()
    tol = _RESIDUAL_FACTOR * (1.0 + r)
    for _ in range(_NEWTON_ITERATIONS):
        f = s + dt * s ** (e + 1.0) - r
        if np.all(np.abs(f) <= tol):
            break
        fp = 1.0 + dt * (e + 1.0) * s**e
        s = np.maximum(s - f / fp, 0.0)
    f = s + dt * s ** (e + 1.0) - r
    stuck = np.abs(f) > tol
    if np.any(stuck):
        lo = np.zeros_like(r)
        hi = r.copy()
        for _ in range(_BISECTION_ITERATIONS):
            mid = 0.5 * (lo + hi)
            fm = mid + dt * mid ** (e + 1.0) - r
            take_hi = fm > 0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        s = np.where(stuck, 0.5 * (lo + hi), s)
        f = s + dt * s ** (e + 1.0) - r
        if np.any(np.abs(f) > 10.0 * _RESIDUAL_FACTOR * (1.0 + r)):
            worst = np.unravel_index(np.argmax(np.abs(f) / (1.0 + r)), f.shape)
            raise NumericalError(
                "implicit kerr solve failed to converge at grid point "
                f"{worst}: |w|={r[worst]}, residual={f[worst]}")

    scale = np.ones_like(r)
    pos = r > 0
    scale[pos] = s[pos] / r[pos]
    return scale
