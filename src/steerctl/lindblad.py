"""Heisenberg-picture Markovian dynamics as 4x4 Pauli transfer matrices.

The duration-T evolution under piecewise-constant control amplitudes
(c_1, ..., c_m) factorizes into per-slot exponentials.  In the Schrodinger
picture the latest slot acts last (leftmost); the Heisenberg adjoint used
here reverses that order, so

    M = E_1 @ E_2 @ ... @ E_m,    E_k = exp(dt*L_{c_k}),

with L_c = L_0 + c * K acting on effect 4-vectors: L_0 is the drift
generator's matrix and K = control_matrix(h).

Every matrix exponential goes through one kernel, ``expm``, which takes a
whole (n, k, k) stack at once: scaling and squaring with the degree-25
Taylor polynomial (Al-Mohy and Higham 2011), each matrix scaled by its own
power of two, in stacked products alone.  No eigendecomposition is used:
L_0 + c*K is defective at the amplitude where damped rotation is critically
damped.  No linear solve is used either, so the unit first column of every
slot exponential of a unital drift (and the unit first row under
dephasing) is exact.

Exact derivatives of M with respect to the amplitudes come from Frechet
derivatives: the top-right block F_k of exp([[dt*L_k, dt*K], [0, dt*L_k]])
is the derivative of E_k, so dM/dc_k = P_{k-1} @ F_k @ S_k with prefix
P_{k-1} = E_1...E_{k-1} and suffix S_k = E_{k+1}...E_m.  A cost gradient
only needs tr(rows @ dM/dc_k @ cols) for every k, an adjoint
(vector-Jacobian) product: the prefixes, whose last entry is M itself, and
the suffixes give it for all k at once without forming any dM/dc_k.  The
transposed suffixes are prefixes of the reversed, transposed factors, so
one log-depth scan over the stacked pair (factors, reversed transposed
factors) yields both: ceil(log2(m)) stacked products rather than 2m
sequential ones.

Every pulse channel is built this one way, values included: M is the last
prefix of a scan over the Frechet-block factors E_k.  A value alone scans
only the factors, not the stacked pair, and gets the same prefixes bit for
bit, so a value and a value with its gradient see the same M.
"""

from __future__ import annotations

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


#: Degree m of the Taylor polynomial, the largest 1-norm at which it meets
#: double-precision backward error (Al-Mohy and Higham, SIAM J. Sci. Comput.
#: 33 (2011) 488, Table 3.1), and the Paterson-Stockmeyer step q.
_TAYLOR_DEGREE = 25
_THETA = 2.4285825244
_PS_STEP = 5

#: Row j maps the powers (I, A, ..., A^q) to the Horner block
#: sum_{i<q} A^i / (q*j + i)!; the last block also takes A^m / m!.
_TAYLOR_BLOCKS = np.array(
    [
        [1 / math.factorial(_PS_STEP * j + i) for i in range(_PS_STEP)] + [0.0]
        for j in range(_TAYLOR_DEGREE // _PS_STEP)
    ]
)
_TAYLOR_BLOCKS[-1, -1] = 1 / math.factorial(_TAYLOR_DEGREE)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (k, k) matrix or of each matrix in an (n, k, k) stack.

    Scaling and squaring with the degree-25 Taylor polynomial, evaluated by
    Paterson-Stockmeyer (Higham, Functions of Matrices, SIAM 2008, 4.4.3):
    matrix i is divided by 2**s_i, s_i = max(0, ceil(log2(||A_i||_1 /
    theta_25))), and its polynomial is squared s_i times.  The per-matrix
    scale makes each result independent of the rest of the stack.  Only
    stacked products are used, so a zero first column (row) of A_i stays
    zero in every power, and the result's is exactly the identity's.
    """
    a = np.asarray(a, dtype=float)
    shape = a.shape
    k = shape[-1]
    a = a.reshape(-1, k, k)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norms / _THETA, 1.0))).astype(int)
    powers = np.empty((_PS_STEP + 1,) + a.shape)
    powers[0] = np.eye(k)
    # A power-of-two scale is exact, so it adds no rounding error.
    np.multiply(a, np.exp2(-s)[:, None, None], out=powers[1])
    for i in range(2, _PS_STEP + 1):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    blocks = _TAYLOR_BLOCKS @ powers.reshape(_PS_STEP + 1, -1)
    blocks = blocks.reshape((len(blocks),) + a.shape)
    r = blocks[-1]
    for block in blocks[-2::-1]:
        r = r @ powers[-1] + block
    for step in range(int(s.max(initial=0))):
        r = np.where((s > step)[:, None, None], r @ r, r)
    return r.reshape(shape)


def expm_frechet(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(A), directional derivative of exp at A along E), for (..., n, n) stacks.

    Both come out of one exponential of the block matrix [[A, E], [0, A]]
    (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 30 (2009) 1639): the
    top-left block is exp(A) and the top-right block is the derivative.  E
    broadcasts against A, so one direction can serve a whole stack.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    block = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    block[..., :n, :n] = a
    block[..., :n, n:] = e
    block[..., n:, n:] = a
    f = expm(block)
    return f[..., :n, :n], f[..., :n, n:]


def _slot_generators(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=float)
    return dt * (l0[None, :, :] + amps[:, None, None] * k[None, :, :])


def _prefixes(factors: np.ndarray) -> np.ndarray:
    """Products of the first j slot factors, j = 0..m: out[0] = I, out[m] = M.

    factors has shape (m, ..., 4, 4); each index of the middle axes is its
    own sequence of m factors.  A log-depth scan: after the pass with
    stride d each entry holds the product of up to 2d consecutive factors,
    so m sequential 4x4 products become ceil(log2(m)) stacked ones.
    """
    m = factors.shape[0]
    out = np.empty((m + 1,) + factors.shape[1:])
    out[0] = np.eye(4)
    out[1:] = factors
    scan = out[1:]
    stride = 1
    while stride < m:
        scan[stride:] = scan[:-stride] @ scan[stride:]
        stride *= 2
    return out


def _slot_scans(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefixes P_0..P_m, derivatives F_1..F_m and suffixes S_1..S_m of a pulse.

    E_k and F_k are blocks of the exponential of the augmented (m, 8, 8)
    stack [[dt*L_k, dt*K], [0, dt*L_k]]: E_k top-left, F_k top-right.  The
    suffix S_k = E_{k+1}...E_m is the transpose of a prefix of the reversed,
    transposed factors, so one scan over the stacked pair (factors, reversed
    transposed factors) gives both.
    """
    factors, frechet = expm_frechet(_slot_generators(l0, k, dt, amplitudes), dt * k)
    scans = _prefixes(np.stack([factors, factors[::-1].transpose(0, 2, 1)], axis=1))
    return scans[:, 0], frechet, scans[-2::-1, 1].transpose(0, 2, 1)


def _channel(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> TransferMatrix:
    """M alone, for callers that need no gradient.

    The factors are the same Frechet-block corners _slot_scans takes, and a
    scan over them alone gives bit for bit the prefixes of its stacked scan,
    so M is the same; only the suffix half of the scan is skipped.
    """
    factors, _ = expm_frechet(_slot_generators(l0, k, dt, amplitudes), dt * k)
    return _prefixes(factors)[-1]


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
    return _channel(g.matrix, control_matrix(h), p.dt, p.amplitudes)


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
