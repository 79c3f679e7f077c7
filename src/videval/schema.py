"""Field readers: the one place where a JSON document becomes dataclass fields.

The config, dataset rows, transcripts, outputs, annotations, manifests and
cassette answers are all read here, each object built by _fill, and every file
but the cassette store's decoded by _json. A reader takes (value, what) and
returns the field's value or raises a SchemaError naming what; each caller
turns that error into its own once. A field is read as its annotation says,
the one place that says it: _reader makes, once per class, Annotated[T, read]
read by read, a Literal by _choice of its values, a list, a str-keyed dict and
a dataclass by the reader of what they hold, and int, float, bool and Path by
their own. Metadata is a module-level name or a partial of one: get_type_hints
evaluates a class's annotations with the class namespace as their globals, so a
lambda written there would not find the module's names when it is called.
A string of an input file is annotated Text and read by _text, which refuses a
text UTF-8 cannot encode; a stored answer's is annotated str and read by
_string, so that it replays as it was recorded.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from pathlib import Path
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

from .errors import SchemaError


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {value!r}")
    return value


def _text(value, what: str) -> str:
    """A string of an input file, which UTF-8 can encode: the JSON escape "\\ud800" reads as a lone surrogate,
    which no table can hold. The error names the surrogate's index and quotes the text around it."""
    if type(value) is str and value.isascii():  # the common case, checked first
        return value
    try:
        _string(value, what).encode("utf-8")
    except UnicodeEncodeError as exc:
        excerpt = value[max(exc.start - 10, 0):exc.start + 11]  # ten characters on each side
        raise SchemaError(f"{what} holds a lone surrogate at index {exc.start}, which UTF-8 cannot encode: "
                          f"{excerpt!r}") from exc
    return value


Text = Annotated[str, _text]  # the annotation of an input file's string


def _json(data: bytes):
    """The one decode of a JSON input: UTF-8, a BOM at its start dropped (json.loads takes none in a str),
    then parsed. It raises what decode and json.loads raise, both ValueErrors, so each caller names its own
    file; json.loads on the bytes would guess UTF-16 or UTF-32, and pass lone surrogates."""
    return json.loads(data.decode("utf-8").removeprefix("\ufeff"))


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):  # "false" would read true
        raise SchemaError(f"{what} must be true or false, got {value!r}")
    return value


_LARGEST = sys.float_info.max  # json.loads reads Infinity, and 1e400, as float("inf")


def _number(value, what: str, kind=int, minimum=0):
    """A finite JSON number of the given kind (int, or float which takes ints too), at least minimum.

    Anything else, a numeric string, NaN and the infinities included, is a SchemaError naming what.
    So is an int past the largest float, which float() could not convert.
    """
    if type(value) is kind and minimum <= value <= _LARGEST:  # the common case, checked first
        return value
    accepted = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, accepted):
        noun = "an integer" if kind is int else "a number"
        raise SchemaError(f"{what} must be {noun}, got {value!r}")
    if not value >= minimum:  # also false for NaN
        raise SchemaError(f"{what} must be at least {minimum}, got {value!r}")
    if not value <= _LARGEST:
        raise SchemaError(f"{what} must be finite, at most {_LARGEST!r}, got {value!r}")
    return kind(value)


_float = partial(_number, kind=float)


def _choice(*allowed):
    """A reader of one of allowed. It returns the allowed object itself, not the value it was
    given: a manifest repeats a few values many times, and then holds one object for each."""

    def read(value, what: str):
        if value not in allowed:
            raise SchemaError(f"{what} must be one of {', '.join(map(repr, allowed))}, got {value!r}")
        return allowed[allowed.index(value)]

    return read


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object, got {value!r}")
    return value


def _list_of(read):
    """A reader of JSON lists whose every item goes through read."""

    def read_list(value, what: str) -> list:
        if not isinstance(value, list):
            raise SchemaError(f"{what} must be a list, got {value!r}")
        return [read(item, f"{what}[{i}]") for i, item in enumerate(value)]

    return read_list


def _object_of(read):
    """A reader of JSON objects whose every value goes through read, named what[key]; each key must be
    a text UTF-8 can encode, as a video id or a model name that ends up in a file must."""

    def read_object(value, what: str) -> dict:
        return {_text(key, f"{what} key"): read(item, f"{what}[{key!r}]") for key, item in _object(value, what).items()}

    return read_object


def _path(value, what: str) -> Path:
    return Path(_string(value, what))


_SCALARS = {int: _number, float: _float, bool: _boolean, Path: _path}


def _reader(hint):
    """The reader of a field annotated hint, as get_type_hints(cls, include_extras=True) resolves it."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return args[1]
    if origin is Literal:
        return _choice(*args)
    if origin is Union or origin is UnionType:  # X | None: _fill takes the None where the default is None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _reader(inner)
    if origin is list:
        return _list_of(_reader(args[0]))
    if origin is dict:
        return _object_of(_reader(args[1]))
    if is_dataclass(hint):
        return partial(_fill, hint)
    return _SCALARS.get(hint, _string)


# per class, (name, default, default_factory, reader) of each field, made on its first _fill
_FIELDS: dict[type, list] = {}


def _fill(cls, entry, what: str):
    """Build the dataclass cls from the JSON object entry, one key per field, passed by position.

    An absent key takes the field's default, or a fresh default_factory() on each call, and so
    does null where that default is None. Any other value goes through the reader its annotation
    gives. Unknown keys are ignored. A missing required field, or a ValueError from __post_init__,
    is a SchemaError. A reader is given the field's name as its what, and its error gets this what
    in front, so the message names the whole path ("record.response.raw_text").
    """
    entry = _object(entry, what)
    specs = _FIELDS.get(cls)
    if specs is None:
        hints = get_type_hints(cls, include_extras=True)
        specs = _FIELDS[cls] = [(f.name, f.default, f.default_factory, _reader(hints[f.name])) for f in fields(cls)]
    values = []
    for name, default, factory, read in specs:
        value = entry.get(name, MISSING)
        if value is MISSING or (value is None and default is None):
            if default is MISSING and factory is MISSING:
                raise SchemaError(f"{what} is missing {name!r}")
            value = default if factory is MISSING else factory()
        else:
            try:
                value = read(value, name)
            except SchemaError as exc:
                raise SchemaError(f"{what}.{exc}") from exc
        values.append(value)
    try:
        return cls(*values)
    except ValueError as exc:  # a check in __post_init__
        raise SchemaError(f"{what}: {exc}") from exc


def _fill_or_default(cls, value, what: str):
    """_fill of cls where null, or any other false value, is {}: each field at its default."""
    return _fill(cls, value or {}, what)


# __match_args__ names the fields: fields() would rebuild that list on every call, and
# vars() would give each of a run's many records a dict of its own
def _plain(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__match_args__}


def _pretty_json(payload) -> str:
    """The encoding of every pretty-printed JSON artifact: indent 2, sorted keys, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
