"""Every dataclass schema._fill builds resolves a reader for each of its fields, as its annotation says."""

import contextlib
import types
import typing
from dataclasses import fields, is_dataclass

import pytest

from videval import schema
from videval.benchmark import BenchmarkItem, RunCondition, RunManifest, RunRecord
from videval.config import HarnessConfig, Templates
from videval.errors import SchemaError
from videval.knowledge_graph import LayoutParams
from videval.parsing import KeyframeEntry, McqAnswer, ParsedVideoOutput
from videval.providers import ConditionTag, ModelResponse, ProviderSettings, Transcript, TranscriptSegment
from videval.scoring import Annotation

# the objects each reader builds: a config, a dataset row, a transcript, an annotation and a manifest line
ROOTS = (HarnessConfig, BenchmarkItem, Transcript, Annotation, RunManifest, RunRecord)
FILLED = {
    HarnessConfig, Templates, ProviderSettings, RunCondition, ConditionTag, LayoutParams,  # the config
    BenchmarkItem, Transcript, TranscriptSegment, Annotation,  # the input files
    RunManifest, RunRecord, ModelResponse, McqAnswer, ParsedVideoOutput,  # a manifest, and a cassette answer
}


def _walk(hint, leaves: list, classes: set, typed=True) -> None:
    """Collect the dataclasses hint names, and the leaves _reader reads by their type alone, as _reader
    walks them. Under an Annotated the metadata reads the value, so only the dataclasses in it count."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        _walk(args[0], leaves, classes, typed=False)
    elif origin in (typing.Union, types.UnionType, list, dict):  # a dict's keys are texts: its values count
        for arg in args[-1:] if origin is dict else args:
            if arg is not type(None):
                _walk(arg, leaves, classes, typed)
    elif is_dataclass(hint):
        if hint not in classes:
            classes.add(hint)
            hints = typing.get_type_hints(hint, include_extras=True)
            for field in fields(hint):
                _walk(hints[field.name], leaves, classes)
    elif typed and origin is not typing.Literal:
        leaves.append(hint)


def test_every_field_of_every_filled_dataclass_has_its_reader():
    # a misspelled name in an annotation is a NameError here, and an unsupported type a plain string
    # check, on every CI leg, rather than on a user's first read of that file
    leaves: list = []
    classes: set = set()
    for root in ROOTS:
        _walk(root, leaves, classes)
    assert classes == FILLED | {KeyframeEntry}  # parsing._keyframe reads a keyframe from its [seconds, caption] pair
    for cls in sorted(FILLED, key=lambda cls: cls.__name__):
        with contextlib.suppress(SchemaError):  # most have a required field: the readers are built first
            schema._fill(cls, {}, cls.__name__)
        readers = [read for _, _, _, read in schema._FIELDS[cls]]
        assert len(readers) == len(fields(cls)) and all(map(callable, readers)), cls
    fallback = [leaf for leaf in leaves if schema._reader(leaf) is schema._string]
    assert all(leaf is str for leaf in fallback), fallback
    assert str in fallback and schema._reader(schema.Text) is schema._text


def test_a_literal_is_read_as_the_one_object_of_its_closed_set():
    closed = typing.Literal["sdpa", "other"]
    read = schema._reader(closed | None)  # the None is _fill's to take
    value = "".join(["ot", "her"])  # equal to "other", but another object
    assert read(value, "attention") is typing.get_args(closed)[1]
    with pytest.raises(SchemaError, match=r"^attention must be one of 'sdpa', 'other', got 'xformers'$"):
        read("xformers", "attention")
