"""The value types accept, reject and behave exactly as their recorded outcomes say.

`Fraction`, `SequenceSpec` and `NeighborResult` are frozen slotted
dataclasses with hand-written constructors that write their slots through
the slot descriptors.  `value_type_outcomes.txt` was recorded from the
dataclass-generated constructors with `__post_init__` checks that these
replaced; running this module as a script prints the table afresh:

    PYTHONPATH=src python tests/test_value_types.py > tests/value_type_outcomes.txt
"""

import dataclasses
import pathlib
import pickle

import pytest

from fareysub import DomainError, Fraction, NeighborResult, SequenceKind, SequenceSpec

RECORD = pathlib.Path(__file__).with_name("value_type_outcomes.txt")


def _outcome(make, *args) -> str:
    try:
        value = make(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return repr(value)


def outcome_lines() -> list[str]:
    """One line per constructor call: its arguments, then the repr or the error text."""
    lines = []
    for kind in SequenceKind:
        for n in range(-1, 13):
            for m in [None, *range(-3, n + 4)]:
                outcome = _outcome(SequenceSpec, kind, n, m)
                lines.append(f"SequenceSpec {kind.value} {n} {m}: {outcome}")
    for num in range(-2, 9):
        for den in range(-2, 9):
            lines.append(f"Fraction {num} {den}: {_outcome(Fraction, num, den)}")
    return lines


def test_constructors_accept_and_reject_as_recorded():
    assert outcome_lines() == RECORD.read_text().splitlines()


def _samples():
    half, third = Fraction(1, 2), Fraction(1, 3)
    return [
        (half, Fraction(num=1, den=2), Fraction(2, 3), {"num": 2, "den": 3}),
        (
            SequenceSpec(SequenceKind.GDIFF, 6, 4),
            SequenceSpec(kind=SequenceKind.GDIFF, n=6, m=4),
            SequenceSpec(SequenceKind.GDIFF, 6, 3),
            {"m": 3},
        ),
        (
            NeighborResult(half, third, None),
            NeighborResult(target=half, predecessor=third, successor=None),
            NeighborResult(half, None, None),
            {"predecessor": None},
        ),
    ]


@pytest.mark.parametrize("value, same, other, changes", _samples())
def test_dataclass_behaviour_is_kept(value, same, other, changes):
    cls = type(value)
    assert value == same and value is not same and hash(value) == hash(same)
    fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    assert hash(value) == hash(fields)
    assert value != other and value != fields
    assert repr(value) == repr(same)
    assert dataclasses.replace(value, **changes) == other
    assert dataclasses.replace(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert [f.name for f in dataclasses.fields(value)] == list(cls.__slots__)
    assert not hasattr(value, "__dict__")
    for name in cls.__slots__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == same


def test_neighbor_result_repr():
    # The record above holds the reprs of the other two types.
    assert repr(NeighborResult(Fraction(1, 2), None, Fraction(2, 3))) == (
        "NeighborResult(target=Fraction(num=1, den=2), predecessor=None, "
        "successor=Fraction(num=2, den=3))"
    )


def test_constructors_keep_their_signatures():
    with pytest.raises(TypeError):
        Fraction(1)
    with pytest.raises(TypeError):
        Fraction(1, 2, 3)
    with pytest.raises(TypeError):
        SequenceSpec(SequenceKind.GDIFF)
    with pytest.raises(TypeError):
        NeighborResult(Fraction(1, 2), None)
    assert SequenceSpec(SequenceKind.FULL, 4) == SequenceSpec(SequenceKind.FULL, 4, None)
    assert SequenceSpec(SequenceKind.FULL, 4, 9).m is None


if __name__ == "__main__":
    print("\n".join(outcome_lines()))
