"""Newton refinement with a residual trail.

newton_refine drives k Newton iterations and records the step length at
every iterate, which is the natural convergence diagnostic: once inside the
certification basin the recorded exponents roughly double row over row
until they saturate the working precision. Each iterate costs one residual,
one Jacobian and one elimination: the recorded step is the one taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .certify import _linearize, _zero
from .expsystems import as_exp_system
from .linalg import CVector
from .scalars import PrecisionConfig, fraction_to_mpf, working_precision


@dataclass(frozen=True)
class ResidualTable:
    """Step lengths beta at iterates 0..k (squared, as computed).

    rows[j] = (j, beta_sq at the j-th iterate). singular_at records the
    iteration index where the Jacobian became singular, or None; when set,
    the table is truncated at that iterate and the point stops moving.
    """

    rows: tuple
    singular_at: int | None = None

    def beta_sq_at(self, k: int):
        return self.rows[k][1]

    def beta_values(self, bits: int):
        """Unsquared step lengths as (k, mpf) pairs at the given precision."""
        out = []
        with working_precision(bits):
            for k, bsq in self.rows:
                if isinstance(bsq, Fraction):
                    bsq = fraction_to_mpf(bsq, bits)
                out.append((k, mp.sqrt(bsq)))
        return out


def newton_refine(F, z: CVector, k: int, prec: PrecisionConfig):
    """Run k Newton iterations from z; returns (final point, ResidualTable).

    The table always contains the step length at the starting point, so it
    has k + 1 rows on a clean run. A singular Jacobian stops the iteration
    early and is recorded rather than raised; by convention the step length
    at a singular iterate is zero and the point is returned unchanged.
    """
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    F = as_exp_system(F)
    with working_precision(prec.bits):
        rows = []
        current = tuple(z)
        singular_at = None
        for j in range(k + 1):
            z, _, step, bsq, _ = _linearize(F, current, prec, inverse=False)
            if step is None:
                rows.append((j, _zero(prec)))
                if j < k:
                    singular_at = j
                break
            rows.append((j, bsq))
            if j == k:
                break
            current = tuple(a - b for a, b in zip(z, step))
        return current, ResidualTable(rows=tuple(rows), singular_at=singular_at)
