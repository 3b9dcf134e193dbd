import pytest

from mtv import indexcore, motivic, regularize, symring


def _clear_memos():
    motivic._plain_matrix.cache_clear()  # S, H and Hstar matrices
    regularize._sh_cache.clear()
    regularize._rho_image.cache_clear()
    regularize.zeta_ones.cache_clear()
    symring.zeta_sym.cache_clear()
    indexcore.from_int_word.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with the level matrices and the regularisation
    memos empty, as one mtv process does: some tests patch what a build
    or a regularisation reads, or count what it computes."""
    _clear_memos()
    yield
    _clear_memos()
