import pytest

from mtv import motivic


@pytest.fixture(autouse=True)
def cold_matrices():
    """Every test builds its level matrices afresh, as one mtv process
    does: some tests patch what a build reads or count what it computes."""
    motivic._plain_matrix.cache_clear()
    yield
    motivic._plain_matrix.cache_clear()
