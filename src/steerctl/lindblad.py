"""Heisenberg-picture Markovian dynamics as 4x4 Pauli transfer matrices.

The duration-T evolution under piecewise-constant control amplitudes
(c_1, ..., c_m) factorizes into per-slot exponentials.  In the Schrodinger
picture the latest slot acts last (leftmost); the Heisenberg adjoint used
here reverses that order, so

    M = E_1 @ E_2 @ ... @ E_m,    E_k = exp(dt*L_{c_k}),

with L_c = L_0 + c * K acting on effect 4-vectors: L_0 is the drift
generator's matrix and K = control_matrix(h).

Every exponential is one kernel: scaling and squaring with the degree-25
Taylor polynomial (Al-Mohy and Higham 2011) of a slot's 8x8 block
[[dt*L_c, dt*K], [0, dt*L_c]], each block scaled by its own power of two.
The blocks of one (drift, control, dt) differ only in the amplitude c, so
the approximant is evaluated as a polynomial in c: its coefficients are
built once and cached, and a slot costs one 26-term product and its
squarings.  A drift window of length t is the zero-amplitude slot of length
t.  No eigendecomposition is used: L_0 + c*K is defective at the amplitude
where damped rotation is critically damped.  No linear solve is used
either, so the unit first column of every slot exponential of a unital
drift (and the unit first row under dephasing) is exact.

The top-right block F_k of a slot's exponential is the derivative of E_k
(Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 30 (2009) 1639), so
dM/dc_k = P_{k-1} @ F_k @ S_k with prefix P_{k-1} = E_1...E_{k-1} and
suffix S_k = E_{k+1}...E_m.  A cost gradient only needs
tr(rows @ dM/dc_k @ cols) for every k, an adjoint (vector-Jacobian)
product: the prefixes, whose last entry is M itself, and the suffixes give
it for all k at once without forming any dM/dc_k.  The transposed suffixes
are prefixes of the reversed, transposed factors, so one log-depth scan
over the stacked pair (factors, reversed transposed factors) yields both:
ceil(log2(m)) stacked products rather than 2m sequential ones.

That scan is the only way a pulse channel is built: M is its last prefix,
for a value as for a value with its gradient, so the two see the same M
by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qubit_algebra import PAULI_BASIS

#: 4x4 real matrices in the (Id, sigma_x, sigma_y, sigma_z) basis.
TransferMatrix = np.ndarray

_UNITAL_TOL = 1e-12


def _rate(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"rate gamma must be finite and >= 0, got {gamma!r}")
    return gamma


@dataclass(frozen=True, eq=False)
class DriftGenerator:
    """Uncontrolled Heisenberg generator, held as its 4x4 Pauli-basis matrix.

    amplitude_damping and dephasing build the built-in generators;
    DriftGenerator(matrix) takes any other.  The matrix must be finite and
    annihilate the identity direction (zero first column), which is
    unitality of the dual channel; it is stored read-only.  Complete
    positivity is not checked: a generator that is not completely positive
    can make a transported effect invalid, which ScenarioEvaluator reports
    as InternalConsistencyError.
    """

    matrix: TransferMatrix

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (4, 4):
            raise ValueError(f"drift generator must be 4x4, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("drift generator entries must be finite")
        if np.max(np.abs(mat[:, 0])) > _UNITAL_TOL:
            raise ValueError(
                "drift generator must annihilate the identity direction "
                "(first column zero)"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __reduce__(self):
        # Unpickling goes through __post_init__, so the copy is read-only too.
        return DriftGenerator, (self.matrix,)

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "DriftGenerator":
        """Decay toward the sigma_z = -1 ground state at rate gamma.

        The lowering operator |g><e| (sigma_z|e> = +|e>) damps sigma_x and
        sigma_y at rate gamma and sends sigma_z to -2*gamma*(Id + sigma_z).
        """
        gm = _rate(gamma)
        return cls(
            np.array(
                [
                    [0.0, 0.0, 0.0, -2.0 * gm],
                    [0.0, -gm, 0.0, 0.0],
                    [0.0, 0.0, -gm, 0.0],
                    [0.0, 0.0, 0.0, -2.0 * gm],
                ]
            )
        )

    @classmethod
    def dephasing(cls, gamma: float) -> "DriftGenerator":
        """Dephasing in the sigma_y basis at rate gamma.

        Damps sigma_x and sigma_z at rate 2*gamma and leaves sigma_y fixed.
        """
        gm = _rate(gamma)
        return cls(np.diag([0.0, -2.0 * gm, 0.0, -2.0 * gm]))


@dataclass(frozen=True)
class ControlHamiltonian:
    """Control Hamiltonian h[0]*sigma_x + h[1]*sigma_y + h[2]*sigma_z."""

    h: tuple[float, float, float]

    def __post_init__(self) -> None:
        h = tuple(float(v) for v in self.h)
        if len(h) != 3 or not all(np.isfinite(v) for v in h):
            raise ValueError(f"h must be a finite 3-vector, got {self.h!r}")
        object.__setattr__(self, "h", h)


def _count(name: str, value: object) -> int:
    """value as an int; anything not integral raises ValueError naming the field.

    Integral floats such as 2.0 pass, because JSON Schema accepts them as
    integers; 2.5 is rejected instead of truncated.
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


@dataclass(frozen=True)
class PulseSequence:
    """Piecewise-constant amplitudes, one per slot of duration dt."""

    dt: float
    amplitudes: tuple[float, ...]

    def __post_init__(self) -> None:
        dt = float(self.dt)
        if not np.isfinite(dt) or dt <= 0.0:
            raise ValueError(f"slot duration dt must be finite and > 0, got {dt!r}")
        amps = tuple(float(c) for c in self.amplitudes)
        if len(amps) < 1:
            raise ValueError("a pulse sequence needs at least one slot")
        if not all(np.isfinite(c) for c in amps):
            raise ValueError("pulse amplitudes must be finite")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, m: int, total_time: float) -> "PulseSequence":
        """m slots of zero amplitude spanning total_time."""
        m = _count("m", m)
        if m < 1:
            raise ValueError("m must be >= 1")
        return cls(float(total_time) / m, (0.0,) * m)

    @property
    def m(self) -> int:
        return len(self.amplitudes)

    @property
    def total_time(self) -> float:
        return self.dt * len(self.amplitudes)

    def as_array(self) -> np.ndarray:
        return np.array(self.amplitudes)


def pauli_transfer_matrix(apply_map: Callable[[np.ndarray], np.ndarray]) -> TransferMatrix:
    """4x4 Pauli-basis matrix of a Hermiticity-preserving linear map on 2x2 matrices."""
    out = np.empty((4, 4))
    for j, pj in enumerate(PAULI_BASIS):
        image = np.asarray(apply_map(pj), dtype=complex)
        for i, pi in enumerate(PAULI_BASIS):
            out[i, j] = 0.5 * np.trace(pi @ image).real
    return out


def control_matrix(h: ControlHamiltonian) -> TransferMatrix:
    """Pauli-basis matrix of A -> i[H, A], the Heisenberg control generator.

    Generates rotations of the Bloch part: zero first row and column, and
    since i[sigma_k, sigma_j] = -2 eps_kjl sigma_l the 3x3 block is -2 times
    the cross-product matrix of h.  Negating a zero component gives -0.0;
    adding 0.0 makes every zero entry +0.0.
    """
    x, y, z = (2.0 * v for v in h.h)
    out = np.zeros((4, 4))
    out[1:, 1:] = [[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]]
    return out + 0.0


#: Degree m of the Taylor polynomial and the largest 1-norm at which it
#: meets double-precision backward error (Al-Mohy and Higham, SIAM J. Sci.
#: Comput. 33 (2011) 488, Table 3.1).
_TAYLOR_DEGREE = 25
_THETA = 2.4285825244


def _square(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Square matrix i of the (n, k, k) stack r s_i times, each on its own."""
    for step in range(int(s.max(initial=0))):
        r = np.where((s > step)[:, None, None], r @ r, r)
    return r


def _sublevel_intervals(
    a: np.ndarray, b: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo, hi of the amplitudes c with ||a + c*b||_1 <= t, one pair per threshold.

    Column j's absolute sum g_j(c) = sum_i |a_ij + c*b_ij| is convex and
    linear between its breakpoints -a_ij/b_ij, and grows by sum_i |b_ij| per
    unit amplitude beyond them, so each side of its minimum inverts by
    interpolation.  The 1-norm is the largest column sum, so its sublevel
    set is the intersection of theirs.  An empty set reads (inf, -inf), so
    lo falls and hi rises with t.  A bound beyond the float range is
    infinite.
    """
    lo = np.full(t.shape, -np.inf)
    hi = np.full(t.shape, np.inf)
    with np.errstate(over="ignore"):
        for aj, bj in zip(a.T, b.T):
            moves = bj != 0.0
            if not moves.any():
                inside = np.abs(aj).sum() <= t
                lo = np.maximum(lo, np.where(inside, -np.inf, np.inf))
                hi = np.minimum(hi, np.where(inside, np.inf, -np.inf))
                continue
            x = np.unique(-aj[moves] / bj[moves])
            g = np.abs(aj + x[:, None] * bj).sum(axis=1)
            slope = np.abs(bj).sum()
            i = int(np.argmin(g))
            # np.interp needs rising values; rounding at close breakpoints
            # could make them dip.
            up = np.maximum.accumulate(g[i:])
            down = np.maximum.accumulate(g[i::-1])
            right = np.where(t > up[-1], x[-1] + (t - up[-1]) / slope, np.interp(t, up, x[i:]))
            left = np.where(
                t > down[-1], x[0] - (t - down[-1]) / slope, np.interp(t, down, x[i::-1])
            )
            inside = t >= g[i]
            lo = np.maximum(lo, np.where(inside, left, np.inf))
            hi = np.minimum(hi, np.where(inside, right, -np.inf))
    empty = lo > hi
    lo[empty], hi[empty] = np.inf, -np.inf
    return lo, hi


class _SlotPolynomial:
    """The slot exponential exp(dt*(LB + c*KB)) of one (drift, control, dt), per amplitude c.

    LB = [[L0, K], [0, L0]] and KB = [[K, 0], [0, K]], so the top-left 4x4
    corner of the exponential is E = exp(dt*L_c) and the top-right one its
    derivative F = dE/dc.  At scale s the degree-25 Taylor polynomial of
    the scaled block is a polynomial in c: with P = dt*LB/2**s and
    u = c * 2**(e - s), Q = dt*KB/2**e normed to [1/2, 1),

        sum_{j<=25} (P + u*Q)**j / j! = sum_i u**i G_{s,i},

    whose coefficients follow from the term recurrence T_{j,i} = (T_{j-1,i}
    @ P + T_{j-1,i-1} @ Q) / j.  Since ||u*Q||_1 is at most theta_25 plus
    ||P||_1, |u| stays small at every amplitude and u**25 cannot overflow.
    s is the smallest s >= 0 with ||dt*(LB + c*KB)||_1 <=
    theta_25 * 2**s, read off the amplitude intervals where each s suffices;
    they are computed once, and the coefficients of a scale when an
    amplitude first needs it, with the same bits whichever call needs it
    first.  Every product is stacked per slot, so a slot's block does not
    depend on the other slots of its pulse, and a zero first column (row) of
    LB and KB leaves an exact unit first column (row).
    """

    def __init__(self, l0: np.ndarray, k: np.ndarray, dt: float):
        zero = np.zeros((4, 4))
        self._drift = dt * np.block([[l0, k], [zero, l0]])
        control = dt * np.block([[k, zero], [zero, k]])
        norm = np.abs(control).sum(axis=0).max()
        # A zero control leaves no amplitude dependence; its u is 0 at every c.
        self._e = math.frexp(norm)[1] if norm else -2100
        self._control = np.ldexp(control, -self._e)
        # theta * 2**1023 overflows, so the last scale takes every amplitude.
        with np.errstate(over="ignore"):
            thresholds = np.ldexp(_THETA, np.arange(1024))
        lo, hi = _sublevel_intervals(self._drift, control, thresholds)
        self._neg_lo, self._hi = -lo, hi
        # Coefficients of the scales built so far, and each scale's row.
        self._built = (np.empty((0, _TAYLOR_DEGREE + 1, 64)), np.full(thresholds.size, -1))

    def _coefficients(self, s: int) -> np.ndarray:
        p = np.ldexp(self._drift, -s)
        coeffs = np.zeros((_TAYLOR_DEGREE + 1, 8, 8))
        terms = np.eye(8)[None]
        coeffs[0] = terms[0]
        for j in range(1, _TAYLOR_DEGREE + 1):
            nxt = np.zeros((j + 1, 8, 8))
            nxt[:j] = terms @ p
            nxt[1:] += terms @ self._control
            terms = nxt / j
            coeffs[: j + 1] += terms
        return coeffs.reshape(_TAYLOR_DEGREE + 1, 64)

    def scales(self, amplitudes: np.ndarray) -> np.ndarray:
        """The scale of each amplitude's block: the number of (nested) intervals without it."""
        return np.maximum(
            np.searchsorted(self._hi, amplitudes), np.searchsorted(self._neg_lo, -amplitudes)
        )

    def blocks(self, amplitudes: np.ndarray) -> np.ndarray:
        """The (m, 8, 8) slot exponentials of the amplitudes."""
        s = self.scales(amplitudes)
        table, rows = self._built
        missing = rows[s] < 0
        if missing.any():
            # A fresh pair, swapped in whole, so concurrent callers stay consistent.
            new = np.unique(s[missing])
            rows = rows.copy()
            rows[new] = len(table) + np.arange(new.size)
            table = np.concatenate([table, [self._coefficients(int(v)) for v in new]])
            self._built = (table, rows)
        u = np.ldexp(amplitudes, self._e - s)
        powers = np.vander(u, _TAYLOR_DEGREE + 1, increasing=True)
        r = (powers[:, None, :] @ table[rows[s]]).reshape(-1, 8, 8)
        return _square(r, s)


@functools.lru_cache(maxsize=8)
def _slot_polynomial(l0: bytes, k: bytes, dt: float) -> _SlotPolynomial:
    """The shared _SlotPolynomial of a (drift, control, dt), keyed by the matrices' bytes."""
    return _SlotPolynomial(
        np.frombuffer(l0).reshape(4, 4), np.frombuffer(k).reshape(4, 4), dt
    )


def _slot_blocks(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> np.ndarray:
    """exp([[dt*L_c, dt*K], [0, dt*L_c]]) for every slot amplitude c, an (m, 8, 8) stack.

    The top-left corners are the slot factors E_k, the top-right ones their
    derivatives F_k.
    """
    poly = _slot_polynomial(l0.tobytes(), k.tobytes(), float(dt))
    return poly.blocks(np.asarray(amplitudes, dtype=float))


def _scan(out: np.ndarray) -> np.ndarray:
    """Turn slot factors out[1:] into their prefix products in place, with out[0] = I.

    out has shape (m + 1, ..., 4, 4); each index of the middle axes is its
    own sequence of m factors.  A log-depth scan: after the pass with
    stride d each entry holds the product of up to 2d consecutive factors,
    so m sequential 4x4 products become ceil(log2(m)) stacked ones.
    """
    out[0] = np.eye(4)
    scan = out[1:]
    m = len(scan)
    stride = 1
    while stride < m:
        scan[stride:] = scan[:-stride] @ scan[stride:]
        stride *= 2
    return out


def _slot_scans(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefixes P_0..P_m, derivatives F_1..F_m and suffixes S_1..S_m of a pulse.

    E_k and F_k are the corners of the slot blocks of _slot_blocks.  The
    suffix S_k = E_{k+1}...E_m is the transpose of a prefix of the reversed,
    transposed factors, so one scan over the pair (factors, reversed
    transposed factors), copied straight into its buffer, gives both.
    """
    blocks = _slot_blocks(l0, k, dt, amplitudes)
    scans = np.empty((len(blocks) + 1, 2, 4, 4))
    scans[1:, 0] = blocks[:, :4, :4]
    scans[1:, 1] = blocks[::-1, :4, :4].transpose(0, 2, 1)
    _scan(scans)
    return scans[:, 0], blocks[:, :4, 4:], scans[-2::-1, 1].transpose(0, 2, 1)


def _propagate_with_vjp(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> tuple[TransferMatrix, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """Transfer matrix M and its vector-Jacobian product in the amplitudes.

    vjp(rows, cols)[k] = tr(rows @ dM/dc_k @ cols) for rows of shape (r, 4)
    and cols of shape (4, r), computed as tr(prefix_k @ F_k @ suffix_k @
    cols @ rows) from the scan that made M; no dM/dc_k is formed.
    """
    prefixes, frechet, suffixes = _slot_scans(l0, k, dt, amplitudes)

    def vjp(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        head = prefixes[:-1] @ frechet
        tail = suffixes @ (cols @ rows)
        return np.einsum("kab,kba->k", head, tail)

    return prefixes[-1], vjp


def propagate(
    g: DriftGenerator, h: ControlHamiltonian, p: PulseSequence
) -> TransferMatrix:
    """Heisenberg transfer matrix of the full pulse sequence.

    Slot factors multiply in pulse order from the left: the first slot acts
    first on the effect, which is the reverse of the Schrodinger order.  The
    matrix is the last prefix of the slot scan, so it is bit for bit the
    transfer matrix of propagate_with_jacobian.
    """
    return _slot_scans(g.matrix, control_matrix(h), p.dt, p.amplitudes)[0][-1]


def propagate_schrodinger(
    g: DriftGenerator, h: ControlHamiltonian, p: PulseSequence
) -> TransferMatrix:
    """Schrodinger transfer matrix, the transpose of the Heisenberg one.

    exp(G^T) = exp(G)^T slot by slot, and transposing the product reverses
    the slot order, so the last slot comes out leftmost.
    """
    return propagate(g, h, p).T


def propagate_with_jacobian(
    g: DriftGenerator, h: ControlHamiltonian, p: PulseSequence
) -> tuple[TransferMatrix, list[TransferMatrix]]:
    """propagate and every dM/dc_k = P_k @ F_k @ S_k from one pass over the slots.

    The transfer matrix is the last prefix of the slot scan, bit for bit
    the channel of propagate and of both ScenarioEvaluator pulse methods.
    """
    prefixes, frechet, suffixes = _slot_scans(g.matrix, control_matrix(h), p.dt, p.amplitudes)
    return prefixes[-1], list(prefixes[:-1] @ frechet @ suffixes)
