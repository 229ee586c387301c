"""One JSON encoder for the report dataclasses, working from the values.

``encode`` turns every tuple or list into a list and every dict into a
dict, recursively, every enum into its value, and every float that is NaN
or infinite into the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``,
which ``float()`` reads back, since strict JSON has no number for them;
other values pass through.  ``Record.to_dict`` encodes each field.  A
derived field is ``field(init=False)``, set by ``__post_init__`` from the
others, and is written like any other field.
"""

from __future__ import annotations

import math
from enum import Enum


def encode(value):
    """``value`` made strict-JSON-ready: sequences as lists, dicts with
    their values encoded, enums as their values, and a non-finite float as
    its string."""
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value.value if isinstance(value, Enum) else value


class Record:
    """Mixin for frozen dataclasses: the JSON form of the fields' values."""

    def to_dict(self) -> dict:
        # A plain dataclass stores exactly its fields.
        return {name: encode(value) for name, value in self.__dict__.items()}
