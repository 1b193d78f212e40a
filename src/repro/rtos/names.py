"""RTAI-style 6-character object names.

RTAI identifies kernel objects (tasks, shared memory, mailboxes,
semaphores) by an unsigned integer derived from a name of **at most six
characters** drawn from a 39-symbol alphabet; the paper notes that "the
ports are characterized by a six character name because the underlying
real time OS use the six character name to refer to the real time tasks"
(section 2.3).  This module reimplements RTAI's ``nam2num``/``num2nam``
pair and the validation the rest of the repository relies on.
"""

from repro.rtos.errors import InvalidTaskNameError

#: Characters accepted in RTAI names, in encoding order: digits, letters
#: (case-folded to upper case), underscore.  Index 0 is reserved for the
#: string terminator, exactly as in RTAI's base-39 encoding.
_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_BASE = len(_ALPHABET) + 2  # RTAI uses base 39: alphabet, '$', terminator
MAX_NAME_LENGTH = 6

#: Character (either case, plus ``$``) -> its RTAI digit.
_DIGITS = {ch: index + 1 for index, ch in enumerate(_ALPHABET)}
_DIGITS.update({ch.lower(): digit for ch, digit in _DIGITS.items()})
_DIGITS["$"] = len(_ALPHABET) + 1


def _char_value(ch):
    """The RTAI digit of ``ch``, or of its upper-case form when that is
    one character (``"ı"`` is ``I``; ``"ß"`` and ``"ﬆ"`` are
    invalid)."""
    value = _DIGITS.get(ch)
    if value is None:
        value = _DIGITS.get(ch.upper())  # two-character forms miss
        if value is None:
            raise InvalidTaskNameError(
                "character %r not allowed in RTAI name" % ch)
    return value


def validate_name(name):
    """Validate ``name`` and return its canonical (upper-case) form.

    Raises :class:`InvalidTaskNameError` for empty names, names longer
    than six characters, or names with characters outside the RTAI
    alphabet.
    """
    if not isinstance(name, str):
        raise InvalidTaskNameError("name must be a string, got %r" % (name,))
    if not name:
        raise InvalidTaskNameError("name must not be empty")
    if len(name) > MAX_NAME_LENGTH:
        raise InvalidTaskNameError(
            "name %r is longer than %d characters (RTAI limit)"
            % (name, MAX_NAME_LENGTH))
    for ch in name:
        _char_value(ch)
    return name.upper()


def nam2num(name):
    """Encode a validated name as RTAI's base-39 unsigned integer."""
    name = validate_name(name)
    value = 0
    for ch in name:
        value = value * _BASE + _DIGITS[ch]
    return value * _BASE ** (MAX_NAME_LENGTH - len(name))


def num2nam(value):
    """Decode ``nam2num`` output back to the canonical name string."""
    if value < 0:
        raise InvalidTaskNameError("encoded name must be non-negative")
    digits = []
    for _ in range(MAX_NAME_LENGTH):
        digits.append(value % _BASE)
        value //= _BASE
    if value:
        raise InvalidTaskNameError("encoded value too large for a name")
    chars = []
    for digit in reversed(digits):
        if digit == 0:
            continue
        if digit == len(_ALPHABET) + 1:
            chars.append("$")
        else:
            chars.append(_ALPHABET[digit - 1])
    name = "".join(chars)
    if not name:
        raise InvalidTaskNameError("encoded value decodes to empty name")
    return name


def derive_port_name(component_name, port_name, index=0):
    """Derive a unique 6-char kernel name for a component port.

    Component and port names in DRCom descriptors may be longer than six
    characters; the kernel objects backing them need RTAI names.  We take
    the first three characters of each and a disambiguating index digit
    when needed, mirroring the convention used in the authors' prototype.
    """
    base = (component_name[:3] + port_name[:3]).upper()
    cleaned = "".join(ch if ch.upper() in _ALPHABET else "_" for ch in base)
    if index:
        cleaned = cleaned[:5] + str(index % 10)
    return validate_name(cleaned[:MAX_NAME_LENGTH])
