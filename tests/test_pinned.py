"""The reproduction's risk rows, recomputed and compared with the ones
pinned in tests/expected/ (see tests/pinned.py)."""

import numpy as np
import pytest

from twostage.experiment import reproduce_table

from pinned import PROTOCOLS, expected_lines, risk_row_lines, risk_rows_file

# the last columns, mse and efficiency, move with the last digits of the
# fitted coefficients, which depend on the BLAS thread count and on the CPU
# kernels: on an AVX-512 x86-64 host, by up to 3e-9 relative over 1, 2 and
# 4 threads, OpenBLAS's Haswell, Zen and Sandybridge kernels and numpy's
# AVX-512 kernels switched off.  The method, the point and the bounds do
# not move.
MC_COLUMNS = 4
MC_RTOL = 1e-7


def _split(lines):
    """Each row as [exact leading fields, *Monte-Carlo fields]."""
    return [line.rsplit(",", MC_COLUMNS) for line in lines[1:]]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_risk_rows_equal_the_pinned_rows(protocol):
    rows = risk_row_lines(reproduce_table(PROTOCOLS[protocol]))
    expected = expected_lines(risk_rows_file(protocol))
    assert rows[0] == expected[0]
    got, want = _split(rows), _split(expected)
    assert [row[0] for row in got] == [row[0] for row in want]
    np.testing.assert_allclose(
        np.array([row[1:] for row in got], dtype=float),
        np.array([row[1:] for row in want], dtype=float),
        rtol=MC_RTOL,
        atol=0.0,
    )
