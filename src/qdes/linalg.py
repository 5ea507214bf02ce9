"""Dense complex linear algebra underneath the automaton models.

Conventions used throughout the package: quantum states are column
vectors (1-D complex arrays), operators act from the left, and
projective measurements are diagonal 0/1 projectors described by sets of
basis indices.  Keeping projectors as index sets makes idempotence and
Hermiticity structural properties instead of numerical ones.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

#: Default tolerance for validity checks (unitarity, normalization).
DEFAULT_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D complex array."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def tensor(a, b) -> np.ndarray:
    """Tensor (Kronecker) product.

    For matrices the result has ``a.rows * b.rows`` rows and
    ``a.cols * b.cols`` columns, with block (i, j) equal to
    ``a[i, j] * b``, stacks of matrices pair up along their leading axes,
    and vectors combine to a vector: entry for entry ``np.kron``'s products.

    Examples
    --------
    >>> tensor([[0, 1], [1, 0]], [[2]]).real
    array([[0., 2.],
           [2., 0.]])
    >>> tensor([1, 0], [0, 1]).real
    array([0., 1., 0., 0.])
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b).ravel()
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def read_only(value, copy: bool = True):
    """An array made read-only, copied first unless ``copy`` is false, or a
    ``MappingProxyType`` over a copied mapping with its arrays made so."""
    if isinstance(value, np.ndarray):
        if copy:
            value = value.copy(order="K")
        value.setflags(write=False)
    elif isinstance(value, abc.Mapping):
        value = MappingProxyType({k: read_only(v, copy) if isinstance(v, np.ndarray) else v for k, v in value.items()})
    return value


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the maximum entrywise deviation of ``M M†`` from I is <= tol."""
    a = as_matrix(m)
    n, c = a.shape
    if n != c:
        raise ValueError(f"unitarity is only defined for square matrices, got {n}x{c}")
    dev = np.max(np.abs(a @ dagger(a) - np.eye(n)))
    return bool(dev <= tol)


def unitary_power(u: np.ndarray, k: int) -> np.ndarray:
    """Integer power of a unitary; negative exponents use the adjoint."""
    if k < 0:
        return np.linalg.matrix_power(dagger(u), -k)
    return np.linalg.matrix_power(np.asarray(u, dtype=complex), k)


@dataclass(frozen=True)
class Projector:
    """Projector onto the span of the basis states listed in ``subset``.

    The induced matrix is diagonal with 0/1 entries, hence exactly
    idempotent and Hermitian by construction.
    """

    subset: frozenset[int]
    dim: int
    _idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(int(i) for i in self.subset))
        if self.dim <= 0:
            raise ValueError("projector dimension must be positive")
        if any(i < 0 or i >= self.dim for i in self.subset):
            raise ValueError(f"projector indices out of range for dim {self.dim}")
        object.__setattr__(self, "_idx", read_only(np.array(sorted(self.subset), dtype=int), copy=False))

    def __reduce__(self):
        """Pickle and deep-copy as a rebuild, so the copy's ``_idx`` is read-only too."""
        return Projector, (self.subset, self.dim)

    @classmethod
    def full(cls, dim: int) -> "Projector":
        return cls(frozenset(range(dim)), dim)

    @classmethod
    def empty(cls, dim: int) -> "Projector":
        return cls(frozenset(), dim)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self._idx)

    def complement(self) -> "Projector":
        return Projector(frozenset(range(self.dim)) - self.subset, self.dim)

    def as_matrix(self) -> np.ndarray:
        d = np.zeros(self.dim)
        d[self._idx] = 1.0
        return np.diag(d).astype(complex)

    def apply(self, v) -> np.ndarray:
        """Project a state vector: keep listed coordinates, zero the rest."""
        a = as_vector(v)
        if a.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: projector dim {self.dim}, vector dim {a.shape[0]}")
        out = np.zeros_like(a)
        out[self._idx] = a[self._idx]
        return out


def projected_norm_sq(p: Projector, v) -> float:
    """Squared norm of the projection, i.e. the measurement probability.

    Equals the sum of |v_i|^2 over the projector's index set; lies in
    [0, ||v||^2].
    """
    a = as_vector(v)
    if a.shape[0] != p.dim:
        raise ValueError(f"dimension mismatch: projector dim {p.dim}, vector dim {a.shape[0]}")
    if len(p.subset) == 0:
        return 0.0
    chunk = a[p._idx]
    return float(np.real(np.vdot(chunk, chunk)))


def projected_norms_sq(p: Projector, vs: np.ndarray) -> np.ndarray:
    """``projected_norm_sq`` of every column of the matrix ``vs``."""
    if vs.shape[0] != p.dim:
        raise ValueError(f"dimension mismatch: projector dim {p.dim}, vector dim {vs.shape[0]}")
    chunk = vs[p._idx]
    return np.einsum("ij,ij->j", chunk.conj(), chunk).real


def norm(v) -> float:
    return float(np.linalg.norm(as_vector(v)))


def is_unit_vector(v, tol: float = DEFAULT_TOL) -> bool:
    return abs(norm(v) - 1.0) <= tol


def all_finite(a) -> bool:
    """True iff every entry is finite (no NaN or Inf)."""
    return bool(np.isfinite(a).all())
