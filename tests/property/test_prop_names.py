"""Property-based tests for RTAI name encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtos.errors import InvalidTaskNameError
from repro.rtos.names import nam2num, num2nam, validate_name

name_strategy = st.text(
    alphabet="0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_$", min_size=1,
    max_size=6)


class TestNameProperties:
    @given(name_strategy)
    def test_roundtrip(self, name):
        assert num2nam(nam2num(name)) == name.upper()

    @given(name_strategy)
    def test_validate_idempotent(self, name):
        canonical = validate_name(name)
        assert validate_name(canonical) == canonical

    @given(name_strategy, name_strategy)
    def test_injective(self, a, b):
        if a.upper() != b.upper():
            assert nam2num(a) != nam2num(b)
        else:
            assert nam2num(a) == nam2num(b)

    @given(name_strategy)
    def test_case_insensitive(self, name):
        assert nam2num(name.lower() if name.isupper() else name.upper()) \
            == nam2num(name)

    @given(name_strategy)
    def test_encoding_nonnegative(self, name):
        assert nam2num(name) >= 0


# ----------------------------------------------------------------------
# the digit table agrees with the old per-character scan
# ----------------------------------------------------------------------
_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_"

#: Ligatures whose upper-case form is the two characters "ST": the
#: old substring scan accepted them.
LIGATURES = ("\ufb05", "\ufb06")

odd_names = st.text(
    alphabet="0123456789abcxyzABCXYZ_$ıßǅﬆ- ",
    min_size=0, max_size=7)


def reference_char_value(ch):
    """The old scan: upper-case, then ``str.find`` in the alphabet."""
    upper = ch.upper()
    idx = _ALPHABET.find(upper)
    if idx >= 0:
        return idx + 1
    if upper == "$":
        return len(_ALPHABET) + 1
    raise InvalidTaskNameError("character %r not allowed in RTAI name"
                               % ch)


def reference_nam2num(name):
    """The old ``validate_name`` + ``nam2num`` loops."""
    if not name:
        raise InvalidTaskNameError("name must not be empty")
    if len(name) > 6:
        raise InvalidTaskNameError(
            "name %r is longer than %d characters (RTAI limit)"
            % (name, 6))
    for ch in name:
        reference_char_value(ch)
    value = 0
    for ch in name.upper():
        value = value * 39 + reference_char_value(ch)
    for _ in range(6 - len(name.upper())):
        value = value * 39
    return name.upper(), value


def outcome(function, name):
    try:
        return function(name)
    except InvalidTaskNameError as error:
        return "raises", str(error)


@settings(max_examples=400, deadline=None)
@given(odd_names)
def test_digit_table_agrees_with_the_scan(name):
    new = outcome(lambda text: (validate_name(text), nam2num(text)),
                  name)
    if any(ligature in name for ligature in LIGATURES) \
            and len(name) <= 6:
        assert new[0] == "raises"
        assert "not allowed" in new[1]
    else:
        assert new == outcome(reference_nam2num, name)


@pytest.mark.parametrize("ligature", LIGATURES)
def test_two_character_upper_forms_are_not_allowed(ligature):
    # "ABCDEﬆ" used to validate to the 7-character "ABCDEST", which
    # num2nam(nam2num(...)) could not decode.
    with pytest.raises(InvalidTaskNameError, match="not allowed"):
        validate_name("ABCDE" + ligature)
    with pytest.raises(InvalidTaskNameError, match="not allowed"):
        nam2num(ligature)
