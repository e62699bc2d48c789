"""Predict matrices that are not finite real numbers, shared by the tests of
every model's predict."""

import numpy as np


def _with_cell(value, dtype=np.float64):
    """A spoiler that copies a matrix as ``dtype`` and puts ``value`` in one cell."""

    def spoil(matrix):
        spoiled = matrix.astype(dtype)
        spoiled[7, 1] = value
        return spoiled

    return spoil


# Ways to spoil a 20 x 3 predict matrix, and how predict must describe each.
SPOILED_MATRICES = {
    "nan": (_with_cell(float("nan")), "finite"),
    "inf": (_with_cell(float("inf")), "finite"),
    "-inf": (_with_cell(float("-inf")), "finite"),
    "text": (lambda matrix: "abc", "real numbers"),
    "ragged": (lambda matrix: [row[: 1 + i % 3] for i, row in enumerate(matrix.tolist())], "real numbers"),
    "object-text": (_with_cell("abc", object), "real numbers"),
    "complex": (_with_cell(1j, complex), "real numbers"),
}
