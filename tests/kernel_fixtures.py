"""Frozen coefficient tables of the first ten kernels.

terms[beta][k] is the coefficient of t^k / |1-z|^(2 beta) with t = 1 - |z|^2;
keys are (kind, gamma).  These are transcriptions of the known closed
formulas, kept independent of the builder.  RAW_H2 and RAW_F2 are the
paper's unnormalized weight-two solutions, with boundary pairs (0, 6) and
(2, -18): RAW_H2 = 6 H_2 and RAW_F2 = 2 F_2 - 18 H_2.
"""

from fractions import Fraction

F = Fraction

KNOWN_KERNELS = {
    ("F", 0): {1: {2: F(1, 2)}, 2: {3: F(1, 2)}},
    ("H", 0): {1: {2: F(1, 2)}},
    ("F", 1): {1: {3: F(1, 2)}, 2: {4: F(1), 3: F(-1)}, 3: {5: F(1, 2)}},
    ("H", 1): {1: {3: F(1, 2)}, 2: {4: F(1, 4)}},
    ("F", 2): {
        1: {4: F(1, 2)},
        2: {5: F(3, 2), 4: F(-3, 2)},
        3: {6: F(3, 2), 5: F(-3, 2)},
        4: {7: F(1, 2)},
    },
    ("H", 2): {
        1: {4: F(1, 2)},
        2: {5: F(1, 2), 4: F(-1, 4)},
        3: {6: F(1, 6)},
    },
    ("F", 3): {
        1: {5: F(1, 2)},
        2: {6: F(2), 5: F(-2)},
        3: {7: F(3), 6: F(-4), 5: F(1)},
        4: {8: F(2), 7: F(-2)},
        5: {9: F(1, 2)},
    },
    ("H", 3): {
        1: {5: F(1, 2)},
        2: {6: F(3, 4), 5: F(-1, 2)},
        3: {7: F(1, 2), 6: F(-1, 3)},
        4: {8: F(1, 8)},
    },
    ("F", 4): {
        1: {6: F(1, 2)},
        2: {7: F(5, 2), 6: F(-5, 2)},
        3: {8: F(5), 7: F(-15, 2), 6: F(5, 2)},
        4: {9: F(5), 8: F(-15, 2), 7: F(5, 2)},
        5: {10: F(5, 2), 9: F(-5, 2)},
        6: {11: F(1, 2)},
    },
    ("H", 4): {
        1: {6: F(1, 2)},
        2: {7: F(1), 6: F(-3, 4)},
        3: {8: F(1), 7: F(-1), 6: F(1, 6)},
        4: {9: F(1, 2), 8: F(-3, 8)},
        5: {10: F(1, 10)},
    },
}

RAW_H2 = {
    1: {4: F(3)},
    2: {5: F(3), 4: F(-3, 2)},
    3: {6: F(1)},
}
RAW_F2 = {
    1: {4: F(-8)},
    2: {4: F(3, 2), 5: F(-6)},
    3: {5: F(-3)},
    4: {7: F(1)},
}
