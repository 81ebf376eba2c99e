"""Finite Heisenberg operator basis and tensor-product plumbing.

The clock and shift matrices generate a projective Z_n x Z_n action on C^n;
the phased products ``basis_t_raw`` form the operator basis used by the
R-matrix builders.  The basis is defined on *integer* characteristics: the
phase depends on the raw product ``a1*a2``, not on its residue, and the
multiplication law below holds exactly for unreduced integer sums.  (With
components reduced before forming the product label, no choice of phases can
satisfy the law; the sign defect is an irremovable 2-cocycle.  Reduction only
changes the basis element by the sign ``(-1)^{n c1 c2 + a1 c2 + a2 c1}``
when shifting by ``n*(c1, c2)``.)  The basis and the structure constants
take integers or integer arrays of characteristics alike, through one array
expression.

TensorOperator carries a dense matrix on an ordered product of labeled
spaces; ``embed`` and ``permute_components`` move operators between slot
conventions.  Slot and matrix-unit indices are 1-based, mirroring the usual
subscript notation (R_12 acts on slots 1 and 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .elliptic import LatticeIndex


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    """Matrix unit E_ij on C^dim, indices 1-based (1 <= i, j <= dim)."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise IndexError(f"matrix unit indices ({i},{j}) outside 1..{dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


@lru_cache(maxsize=None)
def _clock_master(n: int) -> np.ndarray:
    q = np.diag(np.exp(2j * math.pi * np.arange(n) / n))
    q.flags.writeable = False
    return q


@lru_cache(maxsize=None)
def _shift_master(n: int) -> np.ndarray:
    lam = np.zeros((n, n), dtype=complex)
    for j in range(n):
        lam[j, (j + 1) % n] = 1.0
    lam.flags.writeable = False
    return lam


def q_clock(n: int) -> np.ndarray:
    """Diagonal clock matrix diag(exp(2 pi i k / n)), k = 0..n-1."""
    return _clock_master(n).copy()


def lambda_shift(n: int) -> np.ndarray:
    """Cyclic shift matrix with ones on the superdiagonal mod n.

    Satisfies ``lambda_shift @ q_clock = exp(2 pi i / n) q_clock @ lambda_shift``.
    """
    return _shift_master(n).copy()


@lru_cache(maxsize=None)
def _t_parts(n: int) -> np.ndarray:
    """Every ``Q^r1 Lambda^r2`` at once, indexed ``[r1, r2]``."""
    q, lam, power = _clock_master(n), _shift_master(n), np.linalg.matrix_power
    parts = np.array([[power(q, r1) @ power(lam, r2) for r2 in range(n)] for r1 in range(n)])
    parts.flags.writeable = False
    return parts


def basis_t_raw(a1, a2, n: int) -> np.ndarray:
    """Phased clock-shift product ``exp(i pi a1 a2 / n) Q^a1 Lambda^a2``.

    Defined for arbitrary integer characteristics; the phase uses the raw
    product, so different representatives of the same residue class differ
    by a sign (see the module docstring).  Integer arrays of
    characteristics give the stack of matrices, indexed by their
    broadcast shape.
    """
    a1, a2 = np.broadcast_arrays(a1, a2)
    phase = np.exp(1j * (math.pi * a1 * a2 / n))
    return phase[..., None, None] * _t_parts(n)[a1 % n, a2 % n]


def basis_t(alpha: LatticeIndex) -> np.ndarray:
    """Operator basis element at a canonical characteristic."""
    return basis_t_raw(alpha.a1, alpha.a2, alpha.n)


def kappa_raw(a: tuple, b: tuple, n: int):
    """Structure constant ``exp((pi i / n)(b1 a2 - b2 a1))``.

    ``basis_t_raw(a) @ basis_t_raw(b) = kappa_raw(a, b) * basis_t_raw(a + b)``
    with the componentwise integer sum on the right.  Components may be
    integer arrays; they broadcast.
    """
    k = b[0] * a[1] - b[1] * a[0]
    return np.exp(1j * (math.pi * k / n))


def kappa(alpha: LatticeIndex, beta: LatticeIndex) -> complex:
    """Structure constant for canonical characteristics."""
    if alpha.n != beta.n:
        raise ValueError(f"mixed moduli {alpha.n} and {beta.n}")
    return kappa_raw(alpha.pair, beta.pair, alpha.n)


@dataclass(frozen=True)
class TensorOperator:
    """Dense operator on an ordered tensor product of finite spaces.

    ``dims`` lists the factor dimensions in slot order; ``data`` is the
    full matrix of size ``prod(dims)`` squared.  Instances are immutable;
    the stored array is marked read-only.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"invalid dims {dims}")
        total = math.prod(dims)
        data = np.ascontiguousarray(self.data, dtype=complex)
        if data.shape != (total, total):
            raise ValueError(f"data shape {data.shape} inconsistent with dims {dims}")
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        if self.dims != other.dims:
            raise ValueError(f"mismatched dims {self.dims} vs {other.dims}")
        return TensorOperator(self.dims, self.data @ other.data)


def embed_matrix(op: np.ndarray, slots: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Place ``op`` (acting on the listed 1-based slots, in that order) into
    the full product space, identity on the remaining slots."""
    k = len(dims)
    slots = tuple(slots)
    if len(set(slots)) != len(slots) or not all(1 <= s <= k for s in slots):
        raise ValueError(f"invalid slots {slots} for {k} components")
    sub = math.prod(dims[s - 1] for s in slots)
    op = np.asarray(op, dtype=complex)
    if op.shape != (sub, sub):
        raise ValueError(f"operator shape {op.shape} does not act on slots {slots} of {dims}")
    rest = [s for s in range(1, k + 1) if s not in slots]
    rest_dim = math.prod(dims[s - 1] for s in rest)
    full = np.kron(op, np.eye(rest_dim, dtype=complex))
    # full acts on factors ordered slots + rest; conjugate back to 1..k order.
    order = list(slots) + rest
    perm = np.argsort(order)
    cur_dims = [dims[s - 1] for s in order]
    return _permute_matrix(full, cur_dims, perm)


def _permute_matrix(mat: np.ndarray, dims: list[int], perm: np.ndarray) -> np.ndarray:
    k = len(dims)
    tens = mat.reshape(*dims, *dims)
    axes = list(perm) + [k + p for p in perm]
    out_dim = math.prod(dims)
    return np.ascontiguousarray(tens.transpose(axes)).reshape(out_dim, out_dim)


def embed(op: np.ndarray, slots: tuple[int, ...], dims: tuple[int, ...]) -> TensorOperator:
    """TensorOperator wrapper of :func:`embed_matrix`."""
    return TensorOperator(tuple(dims), embed_matrix(op, slots, dims))


def permute_components(op: TensorOperator, perm: tuple[int, ...]) -> TensorOperator:
    """Conjugate by a permutation of tensor factors.

    ``perm`` is 1-based and sends the factor in slot s to slot ``perm[s-1]``;
    e.g. ``(2, 1, 3)`` swaps the first two factors.
    """
    k = len(op.dims)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{k}")
    # new position i holds the factor whose perm value is i+1
    inverse = np.argsort([p - 1 for p in perm])
    new_dims = tuple(op.dims[i] for i in inverse)
    return TensorOperator(new_dims, _permute_matrix(op.data, list(op.dims), inverse))


def kron_all(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of the given matrices, left to right."""
    return reduce(np.kron, mats)
