"""Field readers: the one place where a JSON document becomes dataclass fields.

The config, dataset rows, transcripts, outputs, annotations, manifests and
cassette answers are all read here, each object built by _fill, and every file
but the cassette store's decoded by _json. A reader takes (value, what) and returns the field's value or raises
a SchemaError naming what; each caller turns that error into its own once.
A string of an input file is annotated Text and read by _text, which refuses a
text UTF-8 cannot encode; a stored answer's is annotated str and read by
_string, so that it replays as it was recorded.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields
from functools import partial

from .errors import SchemaError
from .parsing import KeyframeEntry


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {value!r}")
    return value


Text = str  # the annotation of an input file's string, which _fill reads through _text


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


_strings = _list_of(_string)


def _keyframe(pair, what: str, read_caption=_string) -> KeyframeEntry:
    """A [seconds, caption] pair; seconds may be any number and counts in whole seconds."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise SchemaError(f"{what} must be a [seconds, caption] pair, got {pair!r}")
    seconds, caption = _float(pair[0], what), read_caption(pair[1], what)
    try:
        return KeyframeEntry(int(seconds), caption)
    except ValueError as exc:  # out of range, or untrimmed
        raise SchemaError(f"{what}: {exc}") from exc


_keyframes = _list_of(_keyframe)  # a stored answer's
_keyframe_texts = _list_of(partial(_keyframe, read_caption=_text))  # an annotation's

# the reader an annotation gives: every module of a _fill'd dataclass has `from __future__ import
# annotations`, so a field's type is its annotation's text
_TYPED = {"int": _number, "float": _float, "bool": _boolean, "Text": _text}

# per class, (name, default, default_factory, typed reader) of each field: no decode calls fields()
_FIELDS: dict[type, list] = {}


def _fill(cls, entry, what: str, readers: dict):
    """Build the dataclass cls from the JSON object entry, one key per field, passed by position.

    An absent key takes the field's default, or a fresh default_factory() on each call, and so
    does null where that default is None. Any other value goes through its reader in readers,
    else the one its int, float, bool or Text annotation gives, else a string check. Unknown keys are
    ignored. A missing required field, or a ValueError from __post_init__, is a SchemaError.
    A reader is given the field's name as its what, and its error gets this what in front, so
    the message names the whole path ("record.response.raw_text").
    """
    entry = _object(entry, what)
    specs = _FIELDS.get(cls)
    if specs is None:
        specs = _FIELDS[cls] = [
            (f.name, f.default, f.default_factory, _TYPED.get(f.type.removesuffix(" | None"), _string))
            for f in fields(cls)
        ]
    values = []
    for name, default, factory, typed in specs:
        value = entry.get(name, MISSING)
        if value is MISSING or (value is None and default is None):
            if default is MISSING and factory is MISSING:
                raise SchemaError(f"{what} is missing {name!r}")
            value = default if factory is MISSING else factory()
        else:
            try:
                value = readers.get(name, typed)(value, name)
            except SchemaError as exc:
                raise SchemaError(f"{what}.{exc}") from exc
        values.append(value)
    try:
        return cls(*values)
    except ValueError as exc:  # a check in __post_init__
        raise SchemaError(f"{what}: {exc}") from exc


# __match_args__ names the fields: fields() would rebuild that list on every call, and
# vars() would give each of a run's many records a dict of its own
def _plain(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__match_args__}


def _pretty_json(payload) -> str:
    """The encoding of every pretty-printed JSON artifact: indent 2, sorted keys, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
