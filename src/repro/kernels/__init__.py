"""Batch scoring kernels: the operators' numeric inner loops, pluggable.

The join operators (:mod:`repro.core.hhnl`, :mod:`repro.core.hvnl`,
:mod:`repro.core.vvm`) spend their wall-clock in three tight loops —
chunk-versus-document dot products, per-entry posting accumulation and
all-pairs posting products.  This package factors those loops into a
small primitive interface (:class:`~repro.kernels.base.Kernels`) with
three interchangeable backends:

* ``scalar`` — the reference implementation: the operators' original
  pure-Python loops, moved here verbatim.  Every other backend is
  checked against it (the ``kernel-equivalence`` conformance check).
* ``stdlib`` — packed lookup tables over the same arithmetic; a modest
  constant-factor win with zero dependencies.
* ``numpy`` — vectorised batches over packed ``int64`` arrays; the
  fast path, only offered when :mod:`numpy` imports.

``auto`` (the default everywhere) resolves to ``numpy`` when available
and ``stdlib`` otherwise, so environments built on machines without
numpy degrade gracefully instead of failing.  There is no size gate:
numpy measures faster than ``stdlib`` down to the smallest benchmarked
collections (120 x 90 documents).

**Byte-identity guarantee.**  All similarity arithmetic is exact: term
weights are positive integers, every dot product and accumulator cell
is a sum of integer products far below ``2**53``, and float64
represents such sums exactly regardless of addition order.  Candidate
selection is exact too — :class:`~repro.core.topk.TopK` retains a pure
function of the offered candidate *set*, and the batch backends only
drop candidates that are strictly dominated by ``lambda`` better ones
(they can never be retained).  Matches, extras and I/O counters are
therefore bit-identical across backends, which is pinned continuously
by the conformance oracle.

Kernels never touch the simulated disk: they receive decoded,
in-memory cells and return numbers.  All I/O stays in the operators,
where the charging discipline (RA-CORE-IO / RA-CONTEXT) is enforced.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError
from repro.kernels.base import Kernels
from repro.kernels.scalar import ScalarKernels
from repro.kernels.packed import StdlibKernels

#: every kernel backend name accepted by :func:`resolve_kernels`
KERNEL_NAMES = ("auto", "scalar", "stdlib", "numpy")

_CACHE: dict[str, Kernels] = {}


def numpy_available() -> bool:
    """True when the numpy backend can be constructed in this process."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover — depends on the environment
        return False
    return True


def resolve_kernels(name: str = "auto") -> Kernels:
    """The kernel backend for ``name`` (a shared stateless instance).

    ``auto`` picks ``numpy`` when it imports and ``stdlib`` otherwise;
    asking for ``numpy`` explicitly on a machine without it raises —
    silent degradation is only acceptable when the caller asked for it.
    """
    if name not in KERNEL_NAMES:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; choose from {KERNEL_NAMES}"
        )
    if name == "auto":
        name = "numpy" if numpy_available() else "stdlib"
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    if name == "scalar":
        kernels: Kernels = ScalarKernels()
    elif name == "stdlib":
        kernels = StdlibKernels()
    else:
        if not numpy_available():
            raise InvalidParameterError(
                "the numpy kernel backend was requested but numpy is not "
                "importable; use kernel='auto' to fall back to stdlib"
            )
        from repro.kernels.vector import VectorKernels

        kernels = VectorKernels()
    _CACHE[name] = kernels
    return kernels


__all__ = [
    "KERNEL_NAMES",
    "Kernels",
    "ScalarKernels",
    "StdlibKernels",
    "numpy_available",
    "resolve_kernels",
]
