"""The solver's first-fit merges against the O(k^2) loops they replaced.

homotopy._first_fit serves both merges: _dedup_native after each stage and
the parent's merge of polished endpoints (_merge_polished), on the radii
the workers' _polish computes. Verbatim copies of the loops
that did this before, and of the same_root they called, are kept here
(names prefixed _loop) as the references. The point clouds hold exact
duplicates, pairs on either side of the 1e-8 relative cut and of the
robustness radius 1/(20 gamma), and points whose certificate is missing,
did not certify, certified with 3/100 <= alpha < alpha*, or has an
infinite gamma. On every solve compared so far, a merge by the cut alone
kept the same candidates as one with the robustness radius, so this test
is what tells the two apart.
"""

import math
import random

import mpmath as mp
from hypothesis import Phase, given, settings, strategies as st

from expcert import homotopy
from expcert.certify import (
    ALPHA_STAR,
    ROBUST_ALPHA_SQ,
    ROBUST_RADIUS_SQ,
    Certificate,
    _is_infinite,
    _lt_exact,
)
from expcert.errors import PreconditionFailed, SingularMatrix
from expcert.homotopy import HomotopyConfig, _dedup_native, _merge_polished, _norm, _polish
from expcert.linalg import norm_sq
from expcert.scalars import PrecisionConfig, lift_point, working_precision


def _loop_dedup_native(points, rel=1e-8):
    kept = []
    for p in points:
        dup = False
        for q in kept:
            if _norm([a - b for a, b in zip(p, q)]) <= rel * max(1.0, _norm(q)):
                dup = True
                break
        if not dup:
            kept.append(p)
    return kept


def _loop_same_root(F, cert_x, z_x, z_y, prec):
    if not _lt_exact(cert_x.alpha_bound_sq, ROBUST_ALPHA_SQ):
        raise PreconditionFailed("same_root needs alpha < 3/100 at the anchor point")
    if tuple(z_x) == tuple(z_y):
        return True
    if _is_infinite(cert_x.gamma_bound_sq):
        return False
    with working_precision(prec.bits):
        a = lift_point(z_x, prec)
        b = lift_point(z_y, prec)
        dsq = norm_sq(tuple(u - v for u, v in zip(a, b)))
        return _lt_exact(dsq * cert_x.gamma_bound_sq, ROBUST_RADIUS_SQ)


def _loop_polish_merge(F, refined_certs, cfg):
    """The merge loop of polished endpoints, over (refined point,
    certificate or None) pairs."""
    prec = PrecisionConfig("float", cfg.bits)
    reps = []
    for refined, cert in refined_certs:
        dup = False
        for rz, rcert in reps:
            merged = False
            if rcert is not None and rcert.certified_approximate:
                try:
                    merged = _loop_same_root(F, rcert, rz, refined, prec)
                except Exception:  # noqa: BLE001 - non-robust alpha, singular, ...
                    merged = False
            if not merged:
                with working_precision(cfg.bits):
                    d = mp.sqrt(
                        sum((abs(a - b)) ** 2 for a, b in zip(rz, refined))
                    )
                    scale = max(mp.mpf(1), mp.sqrt(sum(abs(a) ** 2 for a in rz)))
                merged = d <= mp.mpf("1e-8") * scale
            if merged:
                dup = True
                break
        if not dup:
            reps.append((refined, cert))
    return tuple(z for z, _ in reps)


# Distance factors, relative to a cut or a radius, kept 5% clear of 1 so
# that no pair sits within rounding of a boundary.
_FACTORS = (0.0, 0.3, 0.6, 0.94, 1.06, 1.5, 3.0)


def _offset(rng, n, d):
    """A random complex direction in C^n, as floats, scaled to length d."""
    u = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    s = math.sqrt(sum(abs(v) ** 2 for v in u))
    return [d * v / s for v in u]


@st.composite
def double_clouds(draw):
    """Points of C^n (n in 1..4) as complex doubles: fresh points of norm
    0.01..1e4, exact copies of earlier ones, and points at a factor of the
    1e-8 cut from an earlier one."""
    rng = random.Random(draw(st.integers(0, 2**64)))
    n = rng.randint(1, 4)
    points = []
    for _ in range(rng.randint(1, 40)):
        kind = rng.random()
        if not points or kind < 0.3:
            points.append(tuple(_offset(rng, n, 10 ** rng.uniform(-2, 4))))
        elif kind < 0.45:
            points.append(rng.choice(points))
        else:
            q = rng.choice(points)
            d = rng.choice(_FACTORS) * 1e-8 * max(1.0, _norm(q))
            points.append(tuple(a + b for a, b in zip(q, _offset(rng, n, d))))
    return points


@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(double_clouds())
def test_dedup_native_keeps_what_the_loop_kept(points):
    keep = _dedup_native()
    assert [p for p in points if keep(p)] == _loop_dedup_native(points)


def _certificate(rng, kind, bits):
    """A float-mode certificate of the given kind, as certify_solution builds
    them, with gamma between 1 and 1e9; None stands for a point whose
    certification raised."""
    if kind == "raised":
        return None
    gamma = mp.mpf(10) ** rng.uniform(0, 9)
    if kind == "singular":
        return Certificate(mp.mpf(0), math.inf, math.inf, False, False, False, "float", bits)
    if kind == "infinite-gamma":
        return Certificate(mp.mpf(0), math.inf, mp.mpf(0), True, False, True, "float", bits)
    alpha = {
        "robust": rng.uniform(0, 0.0299),
        "not-robust": rng.uniform(0.0301, float(ALPHA_STAR) * 0.999),
        "not-certified": rng.uniform(float(ALPHA_STAR) * 1.001, 10),
    }[kind]
    beta = mp.mpf(alpha) / gamma
    return Certificate(
        beta * beta, gamma * gamma, (beta * gamma) ** 2, True, False, kind != "not-certified",
        "float", bits,
    )


_KINDS = ("robust", "robust", "robust", "not-robust", "not-certified", "singular",
          "infinite-gamma", "raised")


@st.composite
def polished_clouds(draw):
    """(bits, [(refined point, certificate or None)]) in C^n, n in 1..4.

    Each new point is fresh, an exact copy of an earlier point, or at a
    factor of the cut 1e-8 * max(1, ||q||) or of q's robustness radius
    1/(20 gamma) from an earlier point q; its own certificate is drawn
    independently. Built under the working precision.
    """
    rng = random.Random(draw(st.integers(0, 2**64)))
    bits = rng.choice((96, 256))
    n = rng.randint(1, 4)
    reps = []
    with working_precision(bits):
        for _ in range(rng.randint(1, 30)):
            kind = rng.random()
            if not reps or kind < 0.25:
                z = tuple(mp.mpc(v) for v in _offset(rng, n, 10 ** rng.uniform(-2, 4)))
            elif kind < 0.4:
                z = rng.choice(reps)[0]
            else:
                q, cert = rng.choice(reps)
                gamma_sq = math.inf if cert is None else cert.gamma_bound_sq
                if kind < 0.65 or _is_infinite(gamma_sq):
                    r = mp.mpf("1e-8") * max(1, mp.sqrt(norm_sq(q)))
                else:
                    r = 1 / (20 * mp.sqrt(gamma_sq))
                d = rng.choice(_FACTORS) * r
                z = tuple(a + mp.mpf(d) * b for a, b in zip(q, _offset(rng, n, 1.0)))
            reps.append((z, _certificate(rng, rng.choice(_KINDS), bits)))
    return bits, reps


@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(polished_clouds())
def test_polish_keeps_what_the_loop_kept(cloud):
    """_polish, with refinement and certification replaced by the drawn
    points and certificates in order, gives radii on which _merge_polished
    keeps the loop's points in its order."""
    bits, reps = cloud
    cfg = HomotopyConfig(seed=0, bits=bits)
    refined = iter(z for z, _ in reps)
    certs = iter(cert for _, cert in reps)

    def newton_iterate(F, z, k, prec):
        return next(refined), (), 0

    def certify_solution(F, z, prec):
        cert = next(certs)
        if cert is None:
            raise SingularMatrix("certification raised")
        return cert

    saved = homotopy.newton_iterate, homotopy.certify_solution
    homotopy.newton_iterate, homotopy.certify_solution = newton_iterate, certify_solution
    try:
        polished = [_polish(None, (0j,), bits) for _ in reps]
    finally:
        homotopy.newton_iterate, homotopy.certify_solution = saved
    keep = _merge_polished()
    assert tuple(p[0] for p in polished if keep(p)) == _loop_polish_merge(None, reps, cfg)
