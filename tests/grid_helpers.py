"""Test-side views of grid records."""

import numpy as np


def record_rows(record):
    """(n, L, 8) corner rows of each point of an `InterpRecord`, -1 where absent."""
    return np.stack([rows[record.cell_index[:, li]] for li, rows in enumerate(record.cells)],
                    axis=1)
