"""Kernel selection for the probability machinery.

The reproduction keeps two implementations of every probability kernel:

* ``dense`` -- the reference path.  Transition matrices are built by the
  original per-state Python loop and returned as dense, read-only
  ``np.ndarray``.  Slow, simple, and the ground truth the optimized
  paths are tested against (tests/core/test_golden_kernels.py and
  tests/core/test_sparse_dense_diff.py).
* ``sparse`` -- the production path.  Transition entries are built by
  the vectorized builder (repro.core.transition_build), matrices stay
  ``scipy.sparse.csr_matrix``, and repeated powering goes through
  repro.core.chain: the native float64 power kernel
  (repro.core.cnative), bit-identical to scipy's matvec loop, which
  runs in its place where the kernel is unavailable, plus incremental
  power chains.
* ``auto`` -- ``sparse``; the default, kept as a name so persisted job
  specs and provenance stay valid.

The resolved kernel is plumbed into experiment provenance
(ResultDocument) so persisted results record which path produced them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

#: Kernel names accepted by models, params, and the CLI.
KERNEL_CHOICES = ("dense", "sparse", "auto")

#: Environment override for the default kernel (same choices).
KERNEL_ENV_VAR = "REPRO_KERNEL"


@dataclass(frozen=True)
class ResolvedKernel:
    """A concrete kernel choice after ``auto`` resolution."""

    #: What the caller asked for ("dense", "sparse", or "auto").
    requested: str
    #: The matrix/build implementation actually used.
    name: str

    def describe(self) -> str:
        """Human/provenance label: the resolved name."""
        return self.name


def resolve_kernel(name: Optional[str] = None) -> ResolvedKernel:
    """Resolve a kernel request (or the ambient default) to an impl.

    ``None`` consults :data:`KERNEL_ENV_VAR` and falls back to
    ``"auto"``.  ``auto`` means the sparse path.
    """
    requested = name if name is not None else _default_kernel_name()
    if requested not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {requested!r}; choose from {KERNEL_CHOICES}"
        )
    if requested == "auto":
        return ResolvedKernel("auto", "sparse")
    return ResolvedKernel(requested, requested)


def _default_kernel_name() -> str:
    value = os.environ.get(KERNEL_ENV_VAR, "").strip()
    return value if value else "auto"


@contextmanager
def kernel_override(name: str) -> Iterator[None]:
    """Temporarily force the ambient default kernel (tests/benchmarks)."""
    resolve_kernel(name)  # validate eagerly
    previous = os.environ.get(KERNEL_ENV_VAR)
    os.environ[KERNEL_ENV_VAR] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV_VAR, None)
        else:
            os.environ[KERNEL_ENV_VAR] = previous
