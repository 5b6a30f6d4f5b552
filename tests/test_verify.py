from fareysub import SequenceKind, SequenceSpec, verify
from fareysub.cli import main


def test_oracle_cache_is_bounded():
    maxsize = verify._cached.cache_info().maxsize
    assert maxsize is not None
    verify._cached.cache_clear()
    # gdiff(1, m) is {0/1, 1/1} for every m <= 0: many distinct, cheap specs.
    for m in range(-maxsize - 10, 1):
        verify.cached_sequence(SequenceSpec(SequenceKind.GDIFF, 1, m))
    assert verify._cached.cache_info().currsize == maxsize


def test_verify_sweep_to_20_never_evicts(capsys):
    verify._cached.cache_clear()
    assert main(["verify", "--max-n", "20"]) == 0
    info = verify._cached.cache_info()
    assert info.currsize == info.misses < info.maxsize
