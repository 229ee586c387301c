"""One JSON codec for the report dataclasses.

``Record.to_dict``/``from_dict`` follow the field type hints: tuples become
lists, enums their values, nested records dicts, and ``None`` passes
through.  Decoding goes through the constructor, so ``__post_init__`` checks
run on decoded data.  A union tells its arms apart by a JSON list, so it
holds at most one tuple arm and one other.  Field codecs are built once per
class, and JSON-ready fields get none, to keep large reports cheap to write.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing
from enum import Enum
from typing import Union

_NONE = type(None)


def _encoder(tp):
    """Function making values of type ``tp`` JSON-ready, or None if they are."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        inner = [e for a in args if a is not Ellipsis and (e := _encoder(a))]
        if not inner:
            return list
        if args[-1] is not Ellipsis:
            raise TypeError(f"{tp}: structured elements need a variadic tuple")
        enc = inner[0]
        return lambda v: [enc(x) for x in v]
    if origin is Union:
        coded = [(typing.get_origin(a) or a, e) for a in args if (e := _encoder(a))]
        if not coded:
            return None
        ((kind, enc),) = coded
        return lambda v: enc(v) if isinstance(v, kind) else v
    if issubclass(tp, Record):
        return tp.to_dict
    if issubclass(tp, Enum):
        return operator.attrgetter("value")
    return None


def _decoder(tp):
    """Function rebuilding values of type ``tp`` from their JSON form."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if args[-1] is Ellipsis:
            dec = _decoder(args[0])
            return lambda v: tuple(dec(x) for x in v)
        decs = [_decoder(a) for a in args]
        return lambda v: tuple(d(x) for d, x in zip(decs, v))
    if origin is Union:
        arms = {
            typing.get_origin(a) is tuple: _decoder(a) for a in args if a is not _NONE
        }
        return lambda v: None if v is None else arms[isinstance(v, list)](v)
    if issubclass(tp, Record):
        return tp.from_dict
    return tp  # scalars and enums decode by construction


@functools.cache
def _codec(cls):
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    encoders = tuple((n, e) for n in names if (e := _encoder(hints[n])))
    return encoders, tuple((n, _decoder(hints[n])) for n in names)


class Record:
    """Mixin for frozen dataclasses: a JSON codec from the field type hints."""

    def to_dict(self) -> dict:
        out = self.__dict__.copy()  # a plain dataclass stores exactly its fields
        for name, enc in _codec(type(self))[0]:
            out[name] = enc(out[name])
        return out

    @classmethod
    def from_dict(cls, d: dict, **decoded):
        """Rebuild from ``to_dict`` output; absent keys take field defaults.

        ``decoded`` fields go to the constructor as they are.
        """
        return cls(**{name: dec(d[name]) for name, dec in _codec(cls)[1] if name in d}, **decoded)
