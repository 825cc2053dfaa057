"""Frozen reference rows for the worked examples.

Each dataset describes the expected shape of one engine row: zeros before
`start`, the listed `head` values from `start` on, and (when `tail` is set)
a constant tail afterwards.  `assert_row` compares a full engine row
(indexed from degree 0) against that shape, optionally only up to `upto`;
stage-2 rows are only meaningful up to k_max - d, so those comparisons pass
an explicit cutoff.
"""

from fractions import Fraction

F = Fraction


def assert_row(row, shape, label="row", upto=None):
    start = shape["start"]
    head = shape["head"]
    tail = shape.get("tail")
    hi = len(row) - 1 if upto is None else min(upto, len(row) - 1)
    for k in range(min(start, hi + 1)):
        assert row[k] == 0, f"{label}[{k}] = {row[k]}, expected 0"
    for i, v in enumerate(head):
        k = start + i
        if k > hi:
            break
        assert row[k] == v, f"{label}[{k}] = {row[k]}, expected {v}"
    if tail is not None:
        for k in range(start + len(head), hi + 1):
            assert row[k] == tail, f"{label}[{k}] = {row[k]}, expected tail {tail}"


ZERO = {"start": 0, "head": [], "tail": 0}


# The five worked examples, all rows frozen.  Degrees are absolute; the
# engine windows use the default k_max = n*d + d.

XYZ = {
    "label": "xyz",
    "text": "x*y*z",
    "variables": ("x", "y", "z"),
    "n": 3,
    "d": 3,
    "tau": 3,
    "type": "I",
    "gamma": {"start": 3, "head": [1, 3, 3, 1], "tail": 0},
    "mu_torsion": ZERO,
    "mu_free": {"start": 3, "head": [1], "tail": 3},
    "mu": {"start": 3, "head": [1], "tail": 3},
    "nu": {"start": 6, "head": [2], "tail": 3},
    "mu2": {"start": 3, "head": [1], "tail": 0},
    "nu2": {"start": 6, "head": [2], "tail": 0},
    "spectrum": [(F(1), 1), (F(2), -2)],
    "stage": 2,
    "degenerate": True,
    "truncated": False,
}

THREE_NODES = {
    "label": "x2y2+x2z2+y2z2",
    "text": "x^2*y^2 + x^2*z^2 + y^2*z^2",
    "variables": ("x", "y", "z"),
    "n": 3,
    "d": 4,
    "tau": 3,
    "type": "I",
    "gamma": {"start": 3, "head": [1, 3, 6, 7, 6, 3, 1], "tail": 0},
    "mu_torsion": {"start": 5, "head": [3, 4, 3], "tail": 0},
    "mu_free": {"start": 3, "head": [1], "tail": 3},
    "mu": {"start": 3, "head": [1, 3, 6, 7, 6, 3], "tail": 3},
    "nu": {"start": 9, "head": [2], "tail": 3},
    "mu2": {"start": 3, "head": [1, 3, 4, 4, 3], "tail": 0},
    "nu2": ZERO,
    "spectrum": [(F(3, 4), 1), (F(1), 3), (F(5, 4), 4), (F(3, 2), 4), (F(7, 4), 3)],
    "stage": 2,
    "degenerate": True,
    "truncated": False,
}

FOUR_LINES = {
    "label": "xyz(x+y+z)",
    "text": "x^2*y*z + x*y^2*z + x*y*z^2",
    "variables": ("x", "y", "z"),
    "n": 3,
    "d": 4,
    "tau": 6,
    "type": "I",
    "gamma": {"start": 3, "head": [1, 3, 6, 7, 6, 3, 1], "tail": 0},
    "mu_torsion": {"start": 6, "head": [1], "tail": 0},
    "mu_free": {"start": 3, "head": [1, 3], "tail": 6},
    "mu": {"start": 3, "head": [1, 3, 6, 7], "tail": 6},
    "nu": {"start": 8, "head": [3, 5], "tail": 6},
    "mu2": {"start": 3, "head": [1, 3, 1, 1], "tail": 0},
    "nu2": {"start": 8, "head": [3], "tail": 0},
    "spectrum": [(F(3, 4), 1), (F(1), 3), (F(5, 4), 1), (F(3, 2), 1), (F(2), -3)],
    "stage": 2,
    "degenerate": True,
    "truncated": False,
}

TWO_A3 = {
    "label": "x2y2+z4",
    "text": "x^2*y^2 + z^4",
    "variables": ("x", "y", "z"),
    "n": 3,
    "d": 4,
    "tau": 6,
    "type": "I",
    "gamma": {"start": 3, "head": [1, 3, 6, 7, 6, 3, 1], "tail": 0},
    "mu_torsion": {"start": 5, "head": [1, 1, 1], "tail": 0},
    "mu_free": {"start": 3, "head": [1, 3, 5], "tail": 6},
    "mu": {"start": 3, "head": [1, 3, 6, 7, 7, 6], "tail": 6},
    "nu": {"start": 7, "head": [1, 3, 5], "tail": 6},
    "mu2": {"start": 3, "head": [1, 1, 2, 1, 1], "tail": 0},
    "nu2": {"start": 7, "head": [1, 1, 1], "tail": 0},
    "spectrum": [
        (F(3, 4), 1),
        (F(1), 1),
        (F(5, 4), 2),
        (F(3, 2), 1),
        (F(2), -1),
        (F(9, 4), -1),
    ],
    "stage": 2,
    "degenerate": True,
    "truncated": False,
    # two A_3 points, each with local exponents 3/4, 1, 5/4
    "alpha_min": F(3, 4),
    "local_exponents": [F(3, 4), F(1), F(5, 4), F(3, 4), F(1), F(5, 4)],
}

X2Y2 = {
    "label": "x2y2",
    "text": "x^2*y^2",
    "variables": ("x", "y"),
    "n": 2,
    "d": 4,
    "tau": 2,
    "type": "I",
    "gamma": {"start": 2, "head": [1, 2, 3, 2, 1], "tail": 0},
    "mu_torsion": {"start": 4, "head": [1], "tail": 0},
    "mu_free": {"start": 2, "head": [1], "tail": 2},
    "mu": {"start": 2, "head": [1, 2, 3], "tail": 2},
    "nu": {"start": 6, "head": [1], "tail": 2},
    "mu2": {"start": 2, "head": [1, 0, 1], "tail": 0},
    "nu2": {"start": 6, "head": [1], "tail": 0},
    "spectrum": [(F(1, 2), 1), (F(1), 1), (F(3, 2), -1)],
    "stage": 2,
    "degenerate": True,
    "truncated": False,
}

FIVE_EXAMPLES = [XYZ, THREE_NODES, FOUR_LINES, TWO_A3, X2Y2]


# Smooth reference: the Fermat cubic surface in three variables.

FERMAT_CUBIC = {
    "text": "x^3 + y^3 + z^3",
    "variables": ("x", "y", "z"),
    "tau": 0,
    # M is the Milnor algebra: all torsion, gamma in every degree
    "mu": {"start": 3, "head": [1, 3, 3, 1], "tail": 0},
    "mu_torsion": {"start": 3, "head": [1, 3, 3, 1], "tail": 0},
    "mu_free": ZERO,
    "nu": ZERO,
    "spectrum": [(F(1), 1), (F(4, 3), 3), (F(5, 3), 3), (F(2), 1)],
    "stage": 1,
}


# A curve that is not weighted homogeneous at its singular point: the tower
# needs a third stage, leaves genuine torsion, and runs out of window.

NON_WH = {
    "label": "x5+y5+x2y2z",
    "text": "x^5 + y^5 + x^2*y^2*z",
    "variables": ("x", "y", "z"),
    "n": 3,
    "d": 5,
    "k_max": 20,
    "tau": 10,
    "type": "I",
    "mu": [0, 0, 0, 1, 3, 6, 10, 12, 12, 10] + [10] * 11,
    "mu_torsion": {"start": 7, "head": [2, 2], "tail": 0},
    "nu": {"start": 10, "head": [4, 7, 9], "tail": 10},
    "mu2": [0, 0, 0, 1, 3, 2, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 10, 10, 10, 10, 10],
    "nu2": [0] * 13 + [1] * 8,
    "profile": {(2, k): 1 for k in range(3, 11)},
    "r_star": 3,
    "truncated": True,
    "spectrum": [(F(4, 5), 2), (F(1), 1), (F(6, 5), 2), (F(7, 5), 2), (F(8, 5), 2)],
}


# Stage-2 mu rows of the pencil members (x^m + y^m) * x^m * y^m for m = 2, 3,
# as computed by the engine over the default window; the nu rows vanish.

PENCIL_MU2 = {
    2: [0, 0, 1, 2, 2, 2, 3, 2, 1, 0, 0],
    3: [0, 0, 1, 2, 3, 3, 3, 3, 3, 4, 3, 2, 1, 0, 0],
}


def pencil_mu2_value(m, k):
    """Piecewise closed form for the stage-2 mu row of the pencil member."""
    if k < 2:
        return 0
    if k <= m + 1:
        return k - 1
    if k <= 3 * m - 1:
        return m
    if k <= 4 * m + 1:
        return 4 * m + 1 - k
    return 0


def pencil_spectrum_value(m, q, k):
    """Closed-form Hodge spectrum multiplicity of the pencil member at
    exponent q + k/(3m): ceil(k/3) enters through the two multiplicity-m
    factors."""
    c = (k + 2) // 3
    if q == 0:
        return k + 1 - 2 * c
    return max(m - k - 1 + 2 * c, 0)
