"""One JSON codec for the report dataclasses, working from the values.

``Record.to_dict`` turns every tuple or list into a list, recursively, and
every enum into its value; other values pass through.  ``from_dict`` turns
every JSON list back into a tuple, recursively, checks each value against
its field's annotation and passes the fields to the constructor, so
``__post_init__`` checks and conversions run on decoded data.  Scalars are
not converted on decode: a file the program writes already holds the right
JSON types, so it decodes to an equal record.
A derived field is ``field(init=False)``, set by ``__post_init__`` from the
others; ``from_dict`` rejects a stored value that differs from it in value
or type (``1`` is not ``true``), and raises ``ParameterDomainError`` for a
missing key, a value of the wrong type (``"bound": "19"``) or one the
constructor cannot take.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing
from enum import Enum

from .errors import ParameterDomainError


def encode(value):
    """``value`` made JSON-ready: sequences as lists, enums as their values."""
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def decode(value):
    """A JSON value with every list, at any depth, turned into a tuple."""
    return tuple(map(decode, value)) if isinstance(value, list) else value


def conforms(value, hint) -> bool:
    """Whether a decoded JSON value has the type ``hint`` names.

    ``float`` takes any real number and ``int`` any integer, neither a
    bool; ``bool``, ``str`` and ``None`` take only themselves; ``Optional``,
    ``Union`` and ``Tuple`` hints are checked member by member.  Any other
    hint, such as an enum, is left to the constructor.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(conforms(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(conforms, value, args))
    if hint in (float, int):
        kind = numbers.Real if hint is float else numbers.Integral
        return isinstance(value, kind) and not isinstance(value, bool)
    if hint in (bool, str, type(None)):
        return isinstance(value, hint)
    return True


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


class Record:
    """Mixin for frozen dataclasses: a JSON codec by value."""

    def to_dict(self) -> dict:
        # A plain dataclass stores exactly its fields.
        return {name: encode(value) for name, value in self.__dict__.items()}

    @classmethod
    def from_dict(cls, d: dict, **decoded):
        """Rebuild from ``to_dict`` output; absent keys take field defaults.

        ``decoded`` fields go to the constructor as they are.
        """
        if not isinstance(d, dict):
            raise ParameterDomainError(f"malformed {cls.__name__}: {d!r} is not an object")
        fields = [f for f in dataclasses.fields(cls) if f.name in d]
        values = {f.name: decode(d[f.name]) for f in fields if f.init}
        hints = _hints(cls)
        for name, value in values.items():
            if not conforms(value, hints[name]):
                raise ParameterDomainError(
                    f"malformed {cls.__name__}: {name}={value!r} has the wrong type"
                )
        try:
            record = cls(**values, **decoded)
        except TypeError as err:  # a missing key, or a value __post_init__ cannot use
            raise ParameterDomainError(f"malformed {cls.__name__}: {err}") from None
        for f in fields:
            if f.init:
                continue
            stored, derived = d[f.name], getattr(record, f.name)
            if type(stored) is not type(derived) or stored != derived:
                raise ParameterDomainError(
                    f"stored {f.name}={stored!r} contradicts the other fields"
                )
        return record
