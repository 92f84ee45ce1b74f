"""Newton refinement with a residual trail.

newton_iterate takes k Newton steps and records the step length at each
iterate it steps from, which is the natural convergence diagnostic: once
inside the certification basin the recorded exponents roughly double row
over row until they saturate the working precision. Each step costs one
residual, one Jacobian and one elimination in mpc at the precision's bits
(newton_direction), in either mode: only the certificate has to be exact,
and a floating step keeps the iterate's size at that precision, where an
exact one would multiply it. A rational iterate is the dyadic value of
the mpc coordinates reached, read exactly. newton_refine adds row k, the
step length at the final point, from one more newton_direction. The CLI
does not: `certify --refine K` fills row K from the certificate's beta^2,
which certifying the final point computes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import SingularMatrix
from .expsystems import as_exp_system, value_and_jacobian
from .linalg import CVector, norm_sq, solve_columns
from .scalars import (
    MODE_FLOAT,
    PrecisionConfig,
    coord_to_exact,
    fraction_to_mpf,
    lift_point,
    working_precision,
)


@dataclass(frozen=True)
class ResidualTable:
    """Step lengths beta at iterates 0..k (squared, as computed).

    rows[j] = (j, beta_sq at the j-th iterate). Rows below k are the
    lengths of the steps taken, mpfs in both modes. Row k is newton_refine's
    Newton step at the final point; in a `certify --refine k` report it is
    the certificate's beta^2 at that point instead (a Fraction, 0 for a J
    that is singular or declined, and absent when certifying the point
    raised). singular_at records the iteration index where the Jacobian
    became singular, or None; when set, the table is truncated at that
    iterate and the point stops moving.
    """

    rows: tuple
    singular_at: int | None = None

    def beta_values(self, bits: int):
        """Unsquared step lengths as (k, mpf) pairs at the given precision."""
        out = []
        with working_precision(bits):
            for k, bsq in self.rows:
                if isinstance(bsq, Fraction):
                    bsq = fraction_to_mpf(bsq, bits)
                out.append((k, mp.sqrt(bsq)))
        return out


def newton_direction(F, z: CVector, prec: PrecisionConfig):
    """(z lifted to mpc at prec.bits, the Newton step J^{-1} F(z), its
    squared norm beta^2), with step and beta^2 None when J is singular.

    One elimination in mpc at prec.bits in either mode, with beta^2 at the
    caller's working precision.
    """
    if prec.is_exact:
        prec = PrecisionConfig(MODE_FLOAT, prec.bits)
    z = lift_point(z, prec)
    residual, J = value_and_jacobian(F, z, prec)
    try:
        (step,) = zip(*solve_columns(J, tuple((v,) for v in residual), prec.bits))
    except SingularMatrix:
        return z, None, None
    return z, step, norm_sq(step)


def newton_iterate(F, z: CVector, k: int, prec: PrecisionConfig):
    """Take k Newton steps from z; returns (final point, rows, singular_at).

    rows holds (j, beta_sq) for each iterate j < k stepped from. A singular
    Jacobian at iterate j stops the iteration: its row reads zero, and
    singular_at is j; otherwise it is None. In rational mode the final
    point is read exactly (coord_to_exact).
    """
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    F = as_exp_system(F)
    rows, current, singular_at = [], tuple(z), None
    with working_precision(prec.bits):
        for j in range(k):
            z, step, bsq = newton_direction(F, current, prec)
            rows.append((j, mp.mpf(0) if step is None else bsq))
            if step is None:
                singular_at = j
                break
            current = tuple(a - b for a, b in zip(z, step))
    if prec.is_exact:
        current = tuple(map(coord_to_exact, current))
    return current, tuple(rows), singular_at


def newton_refine(F, z: CVector, k: int, prec: PrecisionConfig):
    """Run k Newton iterations from z; returns (final point, ResidualTable).

    The table always contains the step length at the starting point, so it
    has k + 1 rows on a clean run: newton_iterate's k, and the step length
    at the final point. A singular Jacobian stops the iteration early and
    is recorded rather than raised; by convention the step length at a
    singular iterate is zero and the point is returned unchanged.
    """
    F = as_exp_system(F)
    point, rows, singular_at = newton_iterate(F, z, k, prec)
    if singular_at is None:
        with working_precision(prec.bits):
            _, step, bsq = newton_direction(F, point, prec)
        rows += ((k, mp.mpf(0) if step is None else bsq),)
    return point, ResidualTable(rows=rows, singular_at=singular_at)
