from __future__ import annotations

import pytest

from censuses import regular_connected


@pytest.mark.parametrize("n,r,count", [(8, 3, 5), (10, 3, 19), (8, 4, 6)])
def test_regular_census_sizes(n, r, count):
    # Published counts of connected r-regular graphs on n vertices.
    assert len(regular_connected(n, r)) == count
