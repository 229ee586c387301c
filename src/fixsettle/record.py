"""One JSON encoder for the report dataclasses, working from the values.

``Record.to_dict`` turns every tuple or list into a list, recursively, and
every enum into its value; other values pass through.  A derived field is
``field(init=False)``, set by ``__post_init__`` from the others, and is
written like any other field.
"""

from __future__ import annotations

from enum import Enum


def encode(value):
    """``value`` made JSON-ready: sequences as lists, enums as their values."""
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return value.value if isinstance(value, Enum) else value


class Record:
    """Mixin for frozen dataclasses: the JSON form of the fields' values."""

    def to_dict(self) -> dict:
        # A plain dataclass stores exactly its fields.
        return {name: encode(value) for name, value in self.__dict__.items()}
