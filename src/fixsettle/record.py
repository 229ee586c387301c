"""One JSON codec for the report dataclasses, working from the values.

``Record.to_dict`` turns every tuple or list into a list, recursively, and
every enum into its value; other values pass through.  ``from_dict`` turns
every JSON list back into a tuple, recursively, and passes the fields to
the constructor, so ``__post_init__`` checks and conversions run on decoded
data.  Scalars are not converted on decode: a file the program writes
already holds the right JSON types, so it decodes to an equal record.
A derived field is ``field(init=False)``, set by ``__post_init__`` from the
others; ``from_dict`` rejects a stored value that differs from it.
"""

from __future__ import annotations

import dataclasses
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
        fields = [f for f in dataclasses.fields(cls) if f.name in d]
        record = cls(**{f.name: decode(d[f.name]) for f in fields if f.init}, **decoded)
        for f in fields:
            if not f.init and d[f.name] != getattr(record, f.name):
                raise ParameterDomainError(
                    f"stored {f.name}={d[f.name]!r} contradicts the other fields"
                )
        return record
