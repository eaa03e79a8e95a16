"""Test tools for lahn.autodiff: a central-difference gradient checker and
a ``reshape`` op that the tests use to build scalar losses. Nothing in
``src/lahn`` needs either, so they live with the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from lahn.autodiff import ShapeError, Tape, Tensor, _accum, _dense_grad, _record


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.values.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor(x.values.reshape(shape).copy())

    def rule(g: np.ndarray) -> None:
        _accum(x, g.reshape(x.values.shape).copy())

    return _record(out, (x,), rule)


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    n_coords: int
    worst: tuple[int, int, float, float] | None  # input idx, flat idx, analytic, numeric
    note: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"grad_check {status}: max rel error {self.max_rel_error:.3e} over {self.n_coords} coords {self.note}"


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of f(*inputs) against central differences.

    f must be scalar-valued and deterministic (fix any rng it uses per call).
    The numeric side only ever runs forward passes, so it is independent of
    every backward rule it is checking. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-6); the report carries the max.
    """
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = f(*inputs)
        if not np.isfinite(out.values).all():
            return GradCheckReport(False, math.inf, 0, None, "non-finite forward value")
        tape.backward(out)
    analytic = [
        _dense_grad(t.grad, t.shape).copy() if t.grad is not None else np.zeros_like(t.values)
        for t in inputs
    ]
    for a in analytic:
        if not np.isfinite(a).all():
            return GradCheckReport(False, math.inf, 0, None, "non-finite analytic gradient")

    max_rel = 0.0
    worst = None
    n_coords = 0
    for ti, t in enumerate(inputs):
        flat = t.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + h
                fp = float(f(*inputs).values)
                flat[i] = orig - h
                fm = float(f(*inputs).values)
            finally:
                flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                return GradCheckReport(False, math.inf, n_coords, worst, "non-finite perturbed value")
            numeric = (fp - fm) / (2.0 * h)
            ana = float(analytic[ti].reshape(-1)[i])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
            n_coords += 1
            if rel > max_rel:
                max_rel = rel
                worst = (ti, i, ana, numeric)
    return GradCheckReport(max_rel < tol, max_rel, n_coords, worst)
