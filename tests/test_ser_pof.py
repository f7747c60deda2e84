"""POF combination identities (paper eqs. 4-6)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError

from .array_oracle import combine, combine_mbu, combine_seu, combine_total

pof_rows = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8
)


def brute_force(pofs):
    """Exact enumeration over all fail/survive outcomes."""
    pofs = list(pofs)
    n = len(pofs)
    p_total = p_seu = 0.0
    for outcome in itertools.product([0, 1], repeat=n):
        prob = 1.0
        for bit, p in zip(outcome, pofs):
            prob *= p if bit else (1.0 - p)
        fails = sum(outcome)
        if fails >= 1:
            p_total += prob
        if fails == 1:
            p_seu += prob
    return p_total, p_seu


class TestCombineIdentities:
    @given(pof_rows)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, pofs):
        total, seu = brute_force(pofs)
        row = np.array([pofs])
        assert combine_total(row)[0] == pytest.approx(total, abs=1e-9)
        assert combine_seu(row)[0] == pytest.approx(seu, abs=1e-9)
        assert combine_mbu(row)[0] == pytest.approx(
            total - seu, abs=1e-9
        )

    @given(pof_rows)
    @settings(max_examples=100, deadline=None)
    def test_ordering(self, pofs):
        row = np.array([pofs])
        total = combine_total(row)[0]
        seu = combine_seu(row)[0]
        mbu = combine_mbu(row)[0]
        assert 0.0 <= seu <= total + 1e-12
        assert total <= 1.0
        assert mbu >= 0.0

    def test_single_cell_has_no_mbu(self):
        row = np.array([[0.7]])
        assert combine_mbu(row)[0] == pytest.approx(0.0, abs=1e-12)
        assert combine_seu(row)[0] == pytest.approx(0.7)

    def test_all_certain_failures(self):
        row = np.array([[1.0, 1.0]])
        total, seu, mbu = combine(row)
        assert total[0] == pytest.approx(1.0)
        assert seu[0] == pytest.approx(0.0, abs=1e-9)
        assert mbu[0] == pytest.approx(1.0, abs=1e-9)

    def test_one_certain_failure_among_zeros(self):
        row = np.array([[1.0, 0.0, 0.0]])
        total, seu, mbu = combine(row)
        assert total[0] == pytest.approx(1.0)
        assert seu[0] == pytest.approx(1.0, abs=1e-9)
        assert mbu[0] == pytest.approx(0.0, abs=1e-9)

    def test_batch_axis(self):
        rows = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.5]])
        total = combine_total(rows)
        assert total.shape == (3,)
        assert total[1] == 0.0
        assert total[2] == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            combine_total(np.array([[1.5]]))
        with pytest.raises(ConfigError):
            combine_seu(np.array([[-0.1]]))
