import pytest

from mtv import indexcore, motivic, numoracle, regularize, symring, wordalg

# Every process-wide memo of mtv, as README lists them: the lru_caches and
# the dict memos.  test_memos.py fails if a module holds one not named here.
MEMOS = (
    indexcore.from_int_word,
    motivic._deriv_D_all,
    motivic._right_factor,
    motivic._graded_factor,
    motivic._plain_matrix,  # S, H and Hstar matrices
    numoracle._t_word,
    numoracle._altz_word,
    regularize._st_table_cache,
    regularize._st_cache,
    regularize._sh_cache,
    regularize._word_cache,
    regularize._reg0_cache,
    regularize._exp_series,
    regularize._rho_image,
    regularize.zeta_ones,
    symring._known_gen,
    symring._mono_mul,
    symring.bernoulli,
    symring.zeta_sym,
    wordalg._stuffle_parts,
    wordalg._shuffle_words,
)


def _clear_memos():
    for memo in MEMOS:
        if isinstance(memo, dict):
            memo.clear()
        else:
            memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with every process-wide memo empty, as one mtv
    process does: some tests patch what a build or a regularisation
    reads, or count what it computes."""
    _clear_memos()
    yield
    _clear_memos()
