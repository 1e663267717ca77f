"""Torus heat kernels with parity signs, by direct and dual summation.

Two kernels on the unit-periodic torus: the plain kernel (sum of Gaussians
over all integer translates) and the alternating kernel (signs by lattice
parity).  Poisson summation turns the first into a cosine series over the
integer dual lattice and the second into one over the half-integer-shifted
dual lattice; direct summation wins for small times, the dual series for
large times, and both agree to near machine precision at the crossover
t* = 0.25.

Both kernels factor exactly into products of four one-dimensional theta
sums; the pointwise API uses the four-dimensional sums as written, while
grid scans (suprema, convolution checks) use the factorized form for speed
and are spot-checked against the pointwise evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import line_fit

TIME_SPLIT = 0.25       # direct below, dual above; both ~1e-15 tails there
TAIL_TOL = 1e-16        # lattice-sum truncation tolerance
GRID_POINTS = 17        # periodic grid points per axis of the grid scans


@dataclass(frozen=True)
class KernelQuery:
    x: tuple
    x0: tuple
    t: float
    method: str = "auto"

    def displacement(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float) - np.asarray(self.x0, dtype=float)


def direct_cutoff(t: float) -> int:
    """Gaussian tail bound: boxes beyond this contribute below TAIL_TOL."""
    return int(np.ceil(np.sqrt(4.0 * t * np.log(1.0 / TAIL_TOL)))) + 2


def dual_cutoff(t: float, tol: float = TAIL_TOL) -> int:
    return int(np.ceil(np.sqrt(-np.log(tol) / (4.0 * np.pi ** 2 * t)))) + 1


def _lattice_box(n: int) -> np.ndarray:
    rng = np.arange(-n, n + 1)
    grids = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _direct_sum(z: np.ndarray, t: float, signed: bool) -> float:
    n = direct_cutoff(t)
    a = _lattice_box(n).astype(float)
    d = z[None, :] - a
    expo = np.exp(-np.einsum("ij,ij->i", d, d) / (4.0 * t))
    if signed:
        expo = expo * np.where((a.sum(axis=1).astype(np.int64) & 1) == 0, 1.0, -1.0)
    return float(np.sum(expo) / (4.0 * np.pi * t) ** 2)


def _dual_sum(z: np.ndarray, t: float, signed: bool) -> float:
    n = dual_cutoff(t)
    k = _lattice_box(n).astype(float)
    if signed:
        k = k + 0.5
    phase = np.cos(2.0 * np.pi * (k @ z))
    return float(np.sum(np.exp(-4.0 * np.pi ** 2 * t
                               * np.einsum("ij,ij->i", k, k)) * phase))


def _evaluate(q: KernelQuery, signed: bool) -> float:
    if q.t <= 0.0:
        raise ValueError("time must be positive")
    z = q.displacement()
    method = q.method
    if method == "auto":
        method = "direct" if q.t < TIME_SPLIT else "dual"
    if method == "direct":
        return _direct_sum(z, q.t, signed)
    if method == "dual":
        return _dual_sum(z, q.t, signed)
    raise ValueError("method must be 'direct', 'dual' or 'auto'")


def heat_kernel_plus(q: KernelQuery) -> float:
    """The plain periodic kernel; tends to 1 exponentially as t grows."""
    return _evaluate(q, signed=False)


def heat_kernel_minus(q: KernelQuery) -> float:
    """The parity-alternating kernel; its dual lattice is half-integer
    shifted, so it decays to 0 with envelope exp(-4π² t)."""
    return _evaluate(q, signed=True)


# ---------------------------------------------------------------------------
# factorized evaluation for grids
# ---------------------------------------------------------------------------

def theta_1d(z: np.ndarray, t: float, signed: bool) -> np.ndarray:
    """1D periodic Gaussian sum with optional alternating signs,
    normalized by (4πt)^(-1/2)."""
    z = np.asarray(z, dtype=float)
    n = direct_cutoff(t)
    a = np.arange(-n, n + 1, dtype=float)
    expo = np.exp(-(z[..., None] - a) ** 2 / (4.0 * t))
    if signed:
        expo = expo * np.where((a.astype(np.int64) & 1) == 0, 1.0, -1.0)
    return expo.sum(axis=-1) / np.sqrt(4.0 * np.pi * t)


def kernel_on_grid(n_per_axis: int, t: float, signed: bool) -> np.ndarray:
    """Kernel values on the uniform periodic grid z_i = i/n (factorized).

    The 0-based grid keeps circular convolution aligned: z_k + z_{m-k} = z_m
    modulo the period, so no half-cell shift is needed.
    """
    z = np.arange(n_per_axis) / n_per_axis
    th = theta_1d(z, t, signed)
    return np.einsum("i,j,k,l->ijkl", th, th, th, th, optimize=False)


def theta_1d_deviation(z: np.ndarray, t: float) -> np.ndarray:
    """θ(z, t) - 1 for the plain 1D kernel, exact for tiny deviations.

    Uses the dual cosine series without its constant term, so deviations far
    below machine epsilon relative to 1 stay representable.
    """
    z = np.asarray(z, dtype=float)
    if t < TIME_SPLIT:
        return theta_1d(z, t, signed=False) - 1.0
    kmax = dual_cutoff(t, tol=1e-320)
    k = np.arange(1, kmax + 1, dtype=float)
    return 2.0 * (np.exp(-4.0 * np.pi ** 2 * t * k ** 2)
                  * np.cos(2.0 * np.pi * np.outer(z, k))).sum(axis=-1)


def sup_deviation(t: float, signed: bool, n_per_axis: int) -> float:
    """sup over the grid of |kernel - 1| (plain) or |kernel| (alternating).

    The plain deviation is assembled as expm1(Σ log1p(u_i)) from the 1D
    deviations u_i, which keeps products like (1+u)^4 - 1 exact even when u
    is far below machine epsilon.
    """
    z = np.arange(n_per_axis) / n_per_axis
    if signed:
        grid = kernel_on_grid(n_per_axis, t, signed=True)
        return float(np.max(np.abs(grid)))
    u = np.log1p(theta_1d_deviation(z, t))
    total = (u[:, None, None, None] + u[None, :, None, None]
             + u[None, None, :, None] + u[None, None, None, :])
    return float(np.max(np.abs(np.expm1(total))))


def decay_rate_scan(signed: bool, times) -> float:
    """Fit log sup-deviation against t and return the rate; the dual
    spectral gap gives -4π²."""
    times = np.asarray(times, dtype=float)
    sups = np.array([sup_deviation(t, signed, GRID_POINTS) for t in times])
    keep = sups > 1e-300
    rate, _ = line_fit(times[keep], np.log(sups[keep]))
    return rate


def semigroup_defect(t: float, s: float) -> float:
    """max |K(t+s) - K(t) * K(s)| with * the grid convolution (FFT)."""
    kt = kernel_on_grid(GRID_POINTS, t, signed=False)
    ks = kernel_on_grid(GRID_POINTS, s, signed=False)
    kts = kernel_on_grid(GRID_POINTS, t + s, signed=False)
    conv = np.real(np.fft.ifftn(np.fft.fftn(kt) * np.fft.fftn(ks)))
    conv = conv / GRID_POINTS ** 4
    return float(np.max(np.abs(conv - kts)))
