"""Central-difference verification of analytic gradients.

The checker perturbs selected entries of each input tensor by +/- h,
re-evaluates the scalar function, and compares (f(x+h) - f(x-h)) / (2h)
against the gradient produced by the reverse pass. An entry passes when
the relative error is within ``rel_tol``, or, for near-zero gradients
(both estimates below ``small``), when the absolute error is within
``abs_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DiffTensor, NonFiniteError, no_grad


@dataclass
class EntryCheck:
    """Comparison record for a single perturbed tensor entry."""

    tensor: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    abs_err: float
    rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    """Aggregate result of a gradient check over one or more tensors."""

    passed: bool
    checked: int
    max_rel_err: float
    max_abs_err: float
    failures: list[EntryCheck] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: {self.checked} entries checked, "
            f"max rel err {self.max_rel_err:.3e}, "
            f"max abs err {self.max_abs_err:.3e}, "
            f"{len(self.failures)} failures"
        )


def _value(fn) -> float:
    """fn() without building a graph: the perturbed evaluations take no gradient."""
    with no_grad():
        value = fn().item()
    if not math.isfinite(value):
        raise NonFiniteError(f"gradcheck: fn returned {value} at a perturbed point")
    return value


def check_gradients(
    fn,
    tensors: dict[str, DiffTensor],
    h: float = 1e-5,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-4,
    small: float = 1e-3,
    max_entries_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``fn`` against central differences.

    Parameters
    ----------
    fn:
        Zero-argument callable that evaluates the scalar loss from the
        current contents of ``tensors`` and returns a scalar DiffTensor.
        It is called once, recorded, for the analytic gradient, and then
        once for every perturbed value, so a closure that changes between
        calls is seen each time. The perturbed calls run under
        ``no_grad()``: a model's group cache then serves floors 1-2 unless
        the perturbed tensor is one of their parameters or the vertex
        encoding, floors 4-6 run on every call, and each perturbed value
        equals a fresh ``no_grad()`` call of ``fn`` bit for bit. Only the
        final value of a perturbed call is checked for NaN or Inf: an
        intermediate Inf that a later operation turns finite is not
        reported there. The recorded call checks every operation.
    tensors:
        Named leaf tensors with ``requires_grad=True`` to check.
    h:
        Central-difference step.
    rel_tol, abs_tol, small:
        An entry passes if rel err <= rel_tol, or if both the analytic and
        numeric derivatives are below ``small`` in magnitude and the
        absolute error is <= abs_tol.
    max_entries_per_tensor:
        When set, check a random sample of at most this many entries per
        tensor instead of every entry; it must be at least 1. Every tensor
        is always touched.
    rng:
        Source of sampling randomness (required when sampling).
    """
    if max_entries_per_tensor is not None and max_entries_per_tensor < 1:
        raise ValueError(
            f"gradcheck: max_entries_per_tensor must be at least 1, got {max_entries_per_tensor}"
        )
    for name, t in tensors.items():
        if not isinstance(t, DiffTensor) or not t.requires_grad:
            raise ValueError(f"gradcheck: tensor {name!r} must require gradients")
        t.zero_grad()

    out = fn()
    if out.size != 1:
        raise ValueError("gradcheck: fn must return a scalar")
    out.backward()
    analytic = {}
    for name, t in tensors.items():
        analytic[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        t.zero_grad()

    checked = 0
    failures: list[EntryCheck] = []
    max_rel = 0.0
    max_abs = 0.0

    for name, t in tensors.items():
        flat_indices = np.arange(t.size)
        if max_entries_per_tensor is not None and t.size > max_entries_per_tensor:
            if rng is None:
                raise ValueError("gradcheck: sampling requires an rng")
            flat_indices = rng.choice(t.size, size=max_entries_per_tensor, replace=False)
        flat = t.data.ravel()
        for fi in flat_indices:
            fi = int(fi)
            original = flat[fi]
            try:
                flat[fi] = original + h
                f_plus = _value(fn)
                flat[fi] = original - h
                f_minus = _value(fn)
            finally:  # a raising fn leaves no perturbed entry behind
                flat[fi] = original

            numeric = (f_plus - f_minus) / (2.0 * h)
            ana = float(analytic[name].ravel()[fi])
            abs_err = abs(ana - numeric)
            denom = max(abs(ana), abs(numeric))
            rel_err = abs_err / denom if denom > 0.0 else 0.0
            if rel_err <= rel_tol:
                ok = True
            elif abs(ana) < small and abs(numeric) < small:
                ok = abs_err <= abs_tol
            else:
                ok = False

            checked += 1
            max_rel = max(max_rel, rel_err)
            max_abs = max(max_abs, abs_err)
            if not ok:
                failures.append(
                    EntryCheck(
                        tensor=name,
                        index=tuple(int(i) for i in np.unravel_index(fi, t.shape)),
                        analytic=ana,
                        numeric=numeric,
                        abs_err=abs_err,
                        rel_err=rel_err,
                        ok=ok,
                    )
                )

    return GradCheckReport(
        passed=not failures,
        checked=checked,
        max_rel_err=max_rel,
        max_abs_err=max_abs,
        failures=failures,
    )
