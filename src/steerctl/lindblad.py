"""Heisenberg-picture Markovian dynamics as 4x4 Pauli transfer matrices.

The duration-T evolution under piecewise-constant control amplitudes
(c_1, ..., c_m) factorizes into per-slot exponentials.  In the Schrodinger
picture the latest slot acts last (leftmost); the Heisenberg adjoint used
here reverses that order, so

    M = E_1 @ E_2 @ ... @ E_m,    E_k = exp(dt*L_{c_k}),

with L_c = L_0 + c * K acting on effect 4-vectors: L_0 is the drift
generator's matrix and K = control_matrix(h).

Every exponential is one kernel.  E(c) = exp(dt*L_c) of one (drift,
control, dt) is entire in the amplitude c, so it is held as local Taylor
tables in c: around each center c_j on a power-of-two grid, a table of 13
matrix coefficients gives E and its derivative dE/dc.  A slot costs one
13-term product with the powers of its offset from the nearest center, and
no squaring.  A center's table is built once, when an amplitude first
needs it, from the exponential of a block bidiagonal matrix (Najfeld and
Havel 1995), itself the degree-25 Taylor polynomial (Al-Mohy and Higham
2011) scaled and squared.  That matrix, each Horner iterate and each square
is upper block-Toeplitz, so only first block rows of 4x4 blocks are formed
and multiplied, by a truncated block convolution.  A drift window of
length t is the zero-amplitude slot of length t.  No eigendecomposition is
used: L_0 + c*K is defective at the amplitude where damped rotation is
critically damped.
No linear solve is used either, so the unit first column of every slot
exponential of a unital drift (and the unit first row under dephasing) is
exact.

The derivative F_k = dE_k/dc_k, the top-right block of
exp([[dt*L_c, dt*K], [0, dt*L_c]]) (Al-Mohy and Higham, SIAM J. Matrix
Anal. Appl. 30 (2009) 1639), comes from the same tables, and
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

from .errors import InvalidEffectError
from .qubit_algebra import PAULI_BASIS

#: 4x4 real matrices in the (Id, sigma_x, sigma_y, sigma_z) basis.
TransferMatrix = np.ndarray

_UNITAL_TOL = 1e-12


def _non_finite(exc: Exception) -> InvalidEffectError:
    """The typed error for numpy's report exc of an overflow or a NaN in a channel product.

    numpy raises its report as an exception where floating-point warnings
    are errors; under other filters the NaN meets a finiteness check later.
    """
    return InvalidEffectError(f"a channel product is non-finite ({exc})")


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
    as InternalConsistencyError, or a channel product overflow, which every
    robustness evaluation and every public propagator reports as
    InvalidEffectError under any warning filter.
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

#: Terms D of a center's table and the largest |c - c_j| * ||dt*K||_1 they
#: serve: under a contractive drift the truncated tail of E, and of F in
#: units of ||dt*K||_1, is at most sum_{i>=D} rho**i / i! < 2**-53 (tested).
_TABLE_TERMS = 13
_RHO = 0.25

#: Squarings after which no bit of an exponential is left: each one can
#: double the rounding error of the last.
_MAX_SQUARINGS = 52

#: Centers kept per (drift, control, dt), and slots served in one batch; a
#: batch that would exceed it starts the cache afresh from its own centers.
_MAX_CENTERS = 1024


class _SlotTables:
    """The slot block [E | F] of one (drift, control, dt) at every amplitude c.

    E(c) = exp(dt*(L0 + c*K)) is entire in c.  Around the center c_j = j*h,
    with the offset u = (c - c_j)/h,

        E = sum_{i<D} u**i C_i,    F = dE/dc = sum_{i<D} (i+1) u**i C_{i+1} / h,

    where C_i is h**i/i! times the i-th derivative of E at c_j: block i of
    the top block row of the exponential of the (D+1)-block bidiagonal
    matrix with dt*L_{c_j} on its diagonal and h*dt*K above it (Najfeld and
    Havel, Adv. Appl. Math. 16 (1995) 321).  The spacing h = 2**-shift is
    the largest power of two with (h/2)*||dt*K||_1 <= rho, so c_j and u are
    exact (unless u is below the float range, where no term can see it) and
    |u| <= 1/2; a zero control takes every amplitude to the one center 0.
    That exponential is the degree-25 Taylor polynomial of the matrix scaled
    to 1-norm theta_25, squared back, in products only, so a zero first
    column (row) of L0 and K leaves an exact unit first column (row).  The
    matrix, each Horner iterate and each square is upper block-Toeplitz and
    so fixed by its first block row (r_0, ..., r_D): with xg and xs the
    scaled diagonal and upper blocks, a Horner step takes r_k to
    (xg @ r_k + xs @ r_{k-1}) / j, plus I in block 0, and a square has
    blocks sum_{i<=k} r_i @ r_{k-i}, summed in order of i.

    Row i of a center's (D, 4, 8) table is [C_i | (i+1) C_{i+1} / h].  The
    tables are built when an amplitude first needs them, with the same bits
    whichever call builds them, and a slot costs one D-term product with
    the powers of its u, so it does not depend on the other slots of its
    pulse.  A center whose exponential is not finite, or would need more
    than _MAX_SQUARINGS squarings, has a NaN table: its slots carry NaN,
    which no later product turns into a floating-point warning.
    """

    def __init__(self, l0: np.ndarray, k: np.ndarray, dt: float):
        self._l0, self._k, self._dt = l0, k, dt
        with np.errstate(over="ignore"):
            f, e = math.frexp(np.abs(dt * k).sum(axis=0).max())
        # ||dt*K||_1 = f * 2**e with f in [1/2, 1) and rho a power of two, so
        # the largest h is exact.  A zero control's u is 0 at every amplitude;
        # an overflowing norm reads inf, and its centers' tables are NaN.
        self._shift = e - math.frexp(_RHO)[1] - (f == 0.5) if f else -2100
        # Beyond this amplitude u would overflow; its center is NaN anyway.
        self._bound = math.ldexp(1.0, 1023 - self._shift) if self._shift > 0 else math.inf
        self._built: tuple[dict[float, int], np.ndarray] = (
            {},
            np.empty((0, _TABLE_TERMS, 32)),
        )

    def _tables(self, centers: np.ndarray) -> np.ndarray:
        """The (n, D, 32) tables of the centers j*h for the indices j in centers."""
        d = _TABLE_TERMS
        with np.errstate(over="ignore", invalid="ignore"):
            # + 0.0: the center -0 is built as 0, whichever sign first asks for it.
            c = np.ldexp(centers, -self._shift) + 0.0
            gens = self._dt * (self._l0 + c[:, None, None] * self._k)
            step = np.ldexp(self._dt * self._k, -self._shift)
            # The bidiagonal matrix's 1-norm: a column meets at most one block of each.
            norms = (np.abs(gens).sum(axis=1) + np.abs(step).sum(axis=0)).max(axis=1)
            s = np.ceil(np.log2(np.maximum(norms / _THETA, 1.0)))
            ok = s <= _MAX_SQUARINGS
            s = np.where(ok, s, 0).astype(int)
            xg = np.ldexp(gens, -s[:, None, None])[:, None]
            xs = np.ldexp(step, -s[:, None, None])[:, None]
            # First block rows only: x @ r has blocks xg @ r_k + xs @ r_{k-1}.
            r = np.zeros((len(c), d + 1, 4, 4))
            r[:, 0] = np.eye(4)
            for j in range(_TAYLOR_DEGREE, 0, -1):
                x_r = xg @ r
                x_r[:, 1:] += xs @ r[:, :-1]
                r = x_r / j
                r[:, 0] += np.eye(4)
            # r @ r has blocks sum_{i<=k} r_i @ r_{k-i}, summed in order of i.
            for squared in range(int(s.max(initial=0))):
                r_r = np.zeros_like(r)
                for i in range(d + 1):
                    r_r[:, i:] += r[:, i, None] @ r[:, : d + 1 - i]
                r = np.where((s > squared)[:, None, None, None], r_r, r)
            derivs = np.ldexp(np.arange(1.0, d + 1)[:, None, None] * r[:, 1:], self._shift)
            table = np.concatenate([r[:, :d], derivs], axis=3)
            table[~(ok & np.isfinite(table).all(axis=(1, 2, 3)))] = np.nan
        return table.reshape(-1, d, 32)

    def locate(self, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The center index j and c/h of each amplitude c; u = c/h - j is their difference."""
        scaled = np.ldexp(np.minimum(np.maximum(amplitudes, -self._bound), self._bound), self._shift)
        return np.rint(scaled), scaled

    def blocks(self, amplitudes: np.ndarray, width: int = 8) -> np.ndarray:
        """The (m, 4, 8) slot blocks [E | F] of the amplitudes, or E alone for width 4.

        Slots are served in contiguous batches of _MAX_CENTERS, each written
        straight into the output, so neither the cache nor a batch's
        gathered tables hold more centers than that.  Each slot is its own
        product, so its bits depend neither on its batch nor on the width.

        Raises:
            InvalidEffectError: if a center is not finite, which a NaN
                amplitude gives, and an infinite one at a spacing h >= 1
                (a zero control's included); no table is kept for it.
        """
        out = np.empty((len(amplitudes), 4, width))
        for start in range(0, len(amplitudes), _MAX_CENTERS):
            batch = slice(start, start + _MAX_CENTERS)
            self._served(amplitudes[batch], out[batch])
        return out

    def _served(self, amplitudes: np.ndarray, out: np.ndarray) -> None:
        """Write the blocks of at most _MAX_CENTERS slots into out, building missing tables."""
        centers, scaled = self.locate(amplitudes)
        keys = centers.tolist()
        index, table = self._built
        # Cached centers first; this stays ahead of any arithmetic on the
        # offsets, so a non-finite amplitude raises before inf - inf is formed.
        try:
            slots = [index[j] for j in keys]
        except KeyError:
            missing = set(keys).difference(index)
            # A NaN center never equals a cached one, so it always lands here.
            if not all(map(math.isfinite, missing)):
                raise InvalidEffectError("a slot amplitude is not finite") from None
            # A fresh pair, swapped in whole, so concurrent callers stay consistent.
            new = sorted(missing)
            if len(index) + len(new) > _MAX_CENTERS:
                index, table, new = {}, table[:0], sorted(set(keys))
            index = {**index, **{j: len(index) + i for i, j in enumerate(new)}}
            table = np.concatenate([table, self._tables(np.array(new))])
            self._built = (index, table)
            slots = [index[j] for j in keys]
        # Each slot's powers u**i as one contiguous row, for its own product.
        powers = np.empty((len(keys), _TABLE_TERMS))
        powers[:, 0] = 1.0
        powers[:, 1:] = (scaled - centers)[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        rows = table.take(slots, axis=0).reshape(-1, _TABLE_TERMS, 4, 8)
        # Each table row's first `width` columns of [E | F], as one matrix per slot.
        width = out.shape[2]
        rows = rows[..., :width].reshape(len(keys), _TABLE_TERMS, 4 * width)
        np.matmul(powers[:, None, :], rows, out=out.reshape(len(keys), 1, 4 * width))


@functools.lru_cache(maxsize=8)
def _slot_tables(l0: bytes, k: bytes, dt: float) -> _SlotTables:
    """The shared _SlotTables of a (drift, control, dt), keyed by the matrices' bytes."""
    return _SlotTables(np.frombuffer(l0).reshape(4, 4), np.frombuffer(k).reshape(4, 4), dt)


def _slot_blocks(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> np.ndarray:
    """[E_k | F_k] for every slot amplitude c_k, an (m, 4, 8) stack.

    E_k = exp(dt*L_{c_k}) is the slot factor and F_k = dE_k/dc_k its
    derivative, the top row of blocks of exp([[dt*L_c, dt*K], [0, dt*L_c]]).
    """
    tables = _slot_tables(l0.tobytes(), k.tobytes(), float(dt))
    return tables.blocks(np.asarray(amplitudes, dtype=float))


def _slot_factors(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> np.ndarray:
    """The slot factors E_k of _slot_blocks alone, an (m, 4, 4) stack, with the same bits."""
    tables = _slot_tables(l0.tobytes(), k.tobytes(), float(dt))
    return tables.blocks(np.asarray(amplitudes, dtype=float), 4)


#: The empty prefix of every scan, shared read-only.
_EYE = np.eye(4)
_EYE.setflags(write=False)


def _scan(out: np.ndarray) -> np.ndarray:
    """Turn slot factors out[1:] into their prefix products in place, with out[0] = I.

    out has shape (m + 1, ..., 4, 4); each index of the middle axes is its
    own sequence of m factors.  A log-depth scan: after the pass with
    stride d each entry holds the product of up to 2d consecutive factors,
    so m sequential 4x4 products become ceil(log2(m)) stacked ones.
    """
    out[0] = _EYE
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

    E_k and F_k are the halves of the slot blocks of _slot_blocks.  The
    suffix S_k = E_{k+1}...E_m is the transpose of a prefix of the reversed,
    transposed factors, so one scan over the pair (factors, reversed
    transposed factors), copied straight into its buffer, gives both.
    """
    blocks = _slot_blocks(l0, k, dt, amplitudes)
    scans = np.empty((len(blocks) + 1, 2, 4, 4))
    scans[1:, 0] = blocks[..., :4]
    scans[1:, 1] = blocks[::-1, :, :4].transpose(0, 2, 1)
    try:
        _scan(scans)
    except (RuntimeWarning, FloatingPointError) as exc:
        # Slots of a drift that is not completely positive can overflow.
        raise _non_finite(exc) from None
    return scans[:, 0], blocks[..., 4:], scans[-2::-1, 1].transpose(0, 2, 1)


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


def _finite(matrices: np.ndarray) -> np.ndarray:
    """matrices, checked for non-finite entries, which a growing drift can give.

    Raises:
        InvalidEffectError: if an entry is not finite, under any warning filter.
    """
    if not np.isfinite(matrices).all():
        raise InvalidEffectError("a transfer matrix has a non-finite entry")
    return matrices


def propagate(
    g: DriftGenerator, h: ControlHamiltonian, p: PulseSequence
) -> TransferMatrix:
    """Heisenberg transfer matrix of the full pulse sequence.

    Slot factors multiply in pulse order from the left: the first slot acts
    first on the effect, which is the reverse of the Schrodinger order.  The
    matrix is the last prefix of the slot scan, so it is bit for bit the
    transfer matrix of propagate_with_jacobian.

    Raises:
        InvalidEffectError: if the matrix is not finite, as the products of
            a drift that is not completely positive can make it.
    """
    return _finite(_slot_scans(g.matrix, control_matrix(h), p.dt, p.amplitudes)[0][-1])


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

    Raises:
        InvalidEffectError: if the matrix or a derivative is not finite; a
            non-finite matrix raises before any derivative is formed.
    """
    prefixes, frechet, suffixes = _slot_scans(g.matrix, control_matrix(h), p.dt, p.amplitudes)
    total = _finite(prefixes[-1])
    return total, list(_finite(prefixes[:-1] @ frechet @ suffixes))
