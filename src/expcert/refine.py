"""Newton refinement with a residual trail.

newton_iterate takes k Newton steps and records the step length at each
iterate it steps from, which is the natural convergence diagnostic: once
inside the certification basin the recorded exponents roughly double row
over row until they saturate the working precision. Each step costs one
residual, one Jacobian and one elimination (newton_direction), and its
recorded length is that of the step taken. newton_refine adds row k, the
step length at the final point, from one more newton_direction. The CLI
does not: `certify --refine K` fills row K from the certificate's beta^2,
which certifying the final point computes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import SingularMatrix
from .expsystems import as_exp_system, exact_core, fraction_free_rows, value_and_jacobian
from .linalg import CVector, norm_sq, solve_columns, solve_fraction_free
from .scalars import PrecisionConfig, fraction_to_mpf, lift_point, working_precision


@dataclass(frozen=True)
class ResidualTable:
    """Step lengths beta at iterates 0..k (squared, as computed).

    rows[j] = (j, beta_sq at the j-th iterate). Rows below k are the
    lengths of the steps taken. Row k is newton_refine's Newton step at the
    final point; in a `certify --refine k` report it is the certificate's
    beta^2 at that point instead (the proven upper bound in float mode, 0
    for a J that is singular or declined, and absent when certifying the
    point raised). singular_at records the iteration index where the
    Jacobian became singular, or None; when set, the table is truncated at
    that iterate and the point stops moving.
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
    """(z lifted to prec, the Newton step J^{-1} F(z), its squared norm
    beta^2), with step and beta^2 None when J is singular.

    Exact points take the step exactly, by a fraction-free solve of the
    rows of their exact core (exact_core, fraction_free_rows); floating ones
    by one elimination in mpc at prec.bits, with beta^2 at the caller's
    working precision.
    """
    z = lift_point(z, prec)
    if prec.is_exact:
        rows, scales = fraction_free_rows(exact_core(F, z, prec), inverse=False)
        try:
            solution = solve_fraction_free(rows, scales)
        except SingularMatrix:
            return z, None, None
        sums, dd = solution.norm_sq_parts()
        return z, solution.column(0), Fraction(sums[0], dd * scales[0] ** 2)
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
    singular_at is j; otherwise it is None.
    """
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    F = as_exp_system(F)
    with working_precision(prec.bits):
        rows = []
        current = tuple(z)
        for j in range(k):
            z, step, bsq = newton_direction(F, current, prec)
            if step is None:
                rows.append((j, _zero(prec)))
                return current, tuple(rows), j
            rows.append((j, bsq))
            current = tuple(a - b for a, b in zip(z, step))
        return current, tuple(rows), None


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
        rows += ((k, _zero(prec) if step is None else bsq),)
    return point, ResidualTable(rows=rows, singular_at=singular_at)


def _zero(prec: PrecisionConfig):
    """The step length recorded at a singular iterate."""
    return Fraction(0) if prec.is_exact else mp.mpf(0)
