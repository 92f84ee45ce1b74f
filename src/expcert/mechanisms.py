"""Built-in example systems from planar mechanism kinematics.

These feed the demo scripts, the data files, and the golden tests. Two
families are provided:

* A two-link arm (link lengths 3 and 2) whose tip must reach the point
  (1, 7/2). Three formulations: polynomial in the joint sines/cosines with
  unit-circle rows, transcendental in the joint angles with sin/cos links,
  and a complex-exponential variant whose links are exp(+-i * angle).

* A compliant four-bar linkage: two torsion springs (stiffnesses k1, k2)
  at anchor points a horizontal distance w apart, rigid links of length r,
  a unit vertical load of 100 on the coupler. Unknowns are the coupler
  angle, the two crank angles, and two spring deflection ratios; the sines
  and cosines of the three angles are split off through six links. An
  alternative formulation keeps only the sine links and constrains each
  sine/cosine pair to the unit circle instead.

Every reference point is stored exactly as printed, so rational-mode runs
are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from .expsystems import ExpKind, ExpLink, ExpSystem
from .polynomials import Polynomial, PolynomialSystem
from .scalars import ExactComplex


def _poly(nv: int, terms) -> Polynomial:
    """terms: list of (coefficient, {1-based var index: exponent})."""
    items = []
    for coeff, pairs in terms:
        exps = [0] * nv
        for var, e in pairs.items():
            exps[var - 1] = e
        items.append((ExactComplex.of(coeff) if not isinstance(coeff, ExactComplex) else coeff,
                      tuple(exps)))
    return Polynomial.from_terms(nv, items)


def _point(*coords) -> tuple:
    out = []
    for c in coords:
        if isinstance(c, tuple):
            out.append(ExactComplex(Fraction(c[0]), Fraction(c[1])))
        else:
            out.append(ExactComplex(Fraction(c)))
    return tuple(out)


# Two-link arm: lengths 3 and 2, target (1, 7/2).
_L1, _L2 = Fraction(3), Fraction(2)
_TX, _TY = Fraction(1), Fraction(7, 2)


def two_link_arm_poly():
    """Polynomial formulation in (s1, s2, c1, c2) with unit-circle rows.

    Returns (system, [point1, point2]) where the points are the two elbow
    configurations reaching the target.
    """
    nv = 4
    g = PolynomialSystem((
        _poly(nv, [(_L1, {3: 1}), (_L2, {4: 1}), (-_TX, {})]),
        _poly(nv, [(_L1, {1: 1}), (_L2, {2: 1}), (-_TY, {})]),
        _poly(nv, [(1, {1: 2}), (1, {3: 2}), (-1, {})]),
        _poly(nv, [(1, {2: 2}), (1, {4: 2}), (-1, {})]),
    ))
    X1 = _point("0.65", "0.77", "0.76", "-0.64")
    X2 = _point("0.95", "0.32", "-0.30", "0.95")
    return g, [X1, X2]


def two_link_arm_exp():
    """Transcendental formulation in (t1, t2, s1, s2, c1, c2) with sin/cos links."""
    nv = 6
    P = PolynomialSystem((
        _poly(nv, [(_L1, {5: 1}), (_L2, {6: 1}), (-_TX, {})]),
        _poly(nv, [(_L1, {3: 1}), (_L2, {4: 1}), (-_TY, {})]),
    ))
    one = ExactComplex.of(1)
    links = (
        ExpLink(ExpKind.SIN, one, 1, 3),
        ExpLink(ExpKind.SIN, one, 2, 4),
        ExpLink(ExpKind.COS, one, 1, 5),
        ExpLink(ExpKind.COS, one, 2, 6),
    )
    G = ExpSystem(P, links)
    Z1 = _point("0.711", "2.261", "0.65", "0.77", "0.76", "-0.64")
    Z2 = _point("1.874", "0.324", "0.95", "0.32", "-0.30", "0.95")
    return G, [Z1, Z2]


def two_link_arm_euler():
    """Complex-exponential formulation in (t1, t2, x1, x2, y1, y2).

    y_j = exp(i t_j) carries each joint angle; its reciprocal x_j = 1/y_j
    (which is exp(-i t_j) on real angles) is pinned by a product row, and
    the two reach equations split into a conjugate pair:

        3 x1 + 2 x2 = 1 - (7/2) i
        3 y1 + 2 y2 = 1 + (7/2) i
        x1 y1 = 1,  x2 y2 = 1

    Coefficients are not all real, but conjugation swaps the two reach rows
    and the x/y pairs, so realness is asked through the batch's
    BatchOptions.assume_real_map (`--assume-real-map`).
    """
    nv = 6
    minus_ie2 = ExactComplex(-_TX, _TY)   # -(e1 - i e2)
    minus_conj = ExactComplex(-_TX, -_TY)  # -(e1 + i e2)
    P = PolynomialSystem((
        _poly(nv, [(_L1, {3: 1}), (_L2, {4: 1}), (minus_ie2, {})]),
        _poly(nv, [(_L1, {5: 1}), (_L2, {6: 1}), (minus_conj, {})]),
        _poly(nv, [(1, {3: 1, 5: 1}), (-1, {})]),
        _poly(nv, [(1, {4: 1, 6: 1}), (-1, {})]),
    ))
    plus_i = ExactComplex(Fraction(0), Fraction(1))
    links = (
        ExpLink(ExpKind.EXP, plus_i, 1, 5),
        ExpLink(ExpKind.EXP, plus_i, 2, 6),
    )
    Gp = ExpSystem(P, links)
    W1 = _point("0.711", "2.261",
                ("0.758", "-0.653"), ("-0.637", "-0.771"),
                ("0.758", "0.653"), ("-0.637", "0.771"))
    W2 = _point("1.874", "0.324",
                ("-0.299", "-0.954"), ("0.948", "-0.318"),
                ("-0.299", "0.954"), ("0.948", "0.318"))
    return Gp, [W1, W2]


# Compliant four-bar constants: spring stiffnesses, rest-angle offsets,
# anchor separation, link length, applied load.
_K1 = Fraction(29250)
_K2 = Fraction("5824.29")
_C1 = Fraction("1.6655")
_C2 = Fraction("1.1419")
_W = Fraction("225.264")
_R = Fraction(250)
_LOAD = Fraction(100)


def _compliant_rows(nv: int, idx: dict) -> list:
    """The five equilibrium/closure rows, written against a variable layout.

    idx maps the symbolic names al, t1, t2, n1, n2, y1..y6 to 1-based
    variable indices in the chosen layout.
    """
    al, t1, t2, n1, n2 = idx["al"], idx["t1"], idx["t2"], idx["n1"], idx["n2"]
    y1, y2, y3, y4, y5, y6 = (idx[k] for k in ("y1", "y2", "y3", "y4", "y5", "y6"))
    rows = [
        _poly(nv, [(_W, {y2: 1}), (_R, {y4: 1}), (-_R, {y6: 1}), (-_LOAD, {})]),
        _poly(nv, [(_W, {y1: 1}), (_R, {y3: 1}), (-_R, {y5: 1})]),
        _poly(nv, [(_W, {y2: 1, n1: 1}), (_R, {y4: 1}), (-_R, {y6: 1, n2: 1})]),
        _poly(nv, [(_W, {y1: 1, n1: 1}), (_R, {y3: 1}), (-_R, {y5: 1, n2: 1})]),
        # Torque balance k1 (al - t1 + c1)(n1 - 1) + k2 (al - t2 + c2)(n1 - n2),
        # expanded to monomials.
        _poly(nv, [
            (_K1 + _K2, {al: 1, n1: 1}),
            (-_K1, {al: 1}),
            (-_K2, {al: 1, n2: 1}),
            (-_K1, {t1: 1, n1: 1}),
            (_K1, {t1: 1}),
            (-_K2, {t2: 1, n1: 1}),
            (_K2, {t2: 1, n2: 1}),
            (_K1 * _C1 + _K2 * _C2, {n1: 1}),
            (-_K2 * _C2, {n2: 1}),
            (-_K1 * _C1, {}),
        ]),
    ]
    return rows


_A1 = ("-0.216933", "1.448567", "0.924966", "0.610174", "1.094669")
_Y1 = ("-0.215236", "0.976562", "0.992539", "0.121925", "0.798600", "0.601862")
_A2 = ("-1.516473", "0.131930", "-0.875993", "1.570656", "1.668379")
_Y2 = ("-0.998525", "0.0542970", "0.131547", "0.991310", "-0.768180", "0.640235")


def compliant_linkage():
    """Eleven-dimensional formulation with six sin/cos links.

    Variables: (al, t1, t2, n1, n2, y1..y6) with y1 = sin al, y2 = cos al,
    y3 = sin t1, y4 = cos t1, y5 = sin t2, y6 = cos t2.
    """
    nv = 11
    idx = {"al": 1, "t1": 2, "t2": 3, "n1": 4, "n2": 5,
           "y1": 6, "y2": 7, "y3": 8, "y4": 9, "y5": 10, "y6": 11}
    P = PolynomialSystem(tuple(_compliant_rows(nv, idx)))
    one = ExactComplex.of(1)
    links = (
        ExpLink(ExpKind.SIN, one, 1, 6),
        ExpLink(ExpKind.COS, one, 1, 7),
        ExpLink(ExpKind.SIN, one, 2, 8),
        ExpLink(ExpKind.COS, one, 2, 9),
        ExpLink(ExpKind.SIN, one, 3, 10),
        ExpLink(ExpKind.COS, one, 3, 11),
    )
    G = ExpSystem(P, links)
    B1 = _point(*_A1, *_Y1)
    B2 = _point(*_A2, *_Y2)
    return G, [B1, B2]


def compliant_linkage_alt():
    """Alternative formulation: sine links only, cosines pinned to the circle.

    The three cosine links are replaced by unit-circle rows s^2 + c^2 = 1,
    which forces a variable reordering so the link-defined variables come
    last: (al, t1, t2, n1, n2, y2, y4, y6 | y1, y3, y5).
    """
    nv = 11
    idx = {"al": 1, "t1": 2, "t2": 3, "n1": 4, "n2": 5,
           "y2": 6, "y4": 7, "y6": 8, "y1": 9, "y3": 10, "y5": 11}
    rows = _compliant_rows(nv, idx)
    for s_name, c_name in (("y1", "y2"), ("y3", "y4"), ("y5", "y6")):
        s, c = idx[s_name], idx[c_name]
        rows.append(_poly(nv, [(1, {s: 2}), (1, {c: 2}), (-1, {})]))
    P = PolynomialSystem(tuple(rows))
    one = ExactComplex.of(1)
    links = (
        ExpLink(ExpKind.SIN, one, 1, 9),
        ExpLink(ExpKind.SIN, one, 2, 10),
        ExpLink(ExpKind.SIN, one, 3, 11),
    )
    Gp = ExpSystem(P, links)

    def permute(avals, yvals):
        al, t1, t2, n1, n2 = avals
        y1, y2, y3, y4, y5, y6 = yvals
        return _point(al, t1, t2, n1, n2, y2, y4, y6, y1, y3, y5)

    B1 = permute(_A1, _Y1)
    B2 = permute(_A2, _Y2)
    return Gp, [B1, B2]
