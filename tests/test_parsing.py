import random

import pytest

from videval.errors import NoAnswerFound
from videval.parsing import (
    MAX_CAPTION_LEN,
    KeyframeEntry,
    parse_mcq,
    parse_timestamp,
    parse_video_output,
)


def brute_force_seconds(text: str) -> int:
    """Independent digit-by-digit evaluator for colon-separated timestamps."""
    fields = []
    current = ""
    for ch in text:
        if ch == ":":
            fields.append(current)
            current = ""
        else:
            current += ch
    fields.append(current)
    values = [sum((ord(c) - ord("0")) * 10 ** (len(f) - 1 - i) for i, c in enumerate(f)) for f in fields]
    while len(values) < 3:
        values.insert(0, 0)
    return values[0] * 3600 + values[1] * 60 + values[2]


def render_timestamp(seconds: int) -> str:
    """MM:SS under an hour, H:MM:SS from an hour on: the forms models write."""
    hours, rest = divmod(seconds, 3600)
    text = f"{rest // 60:02d}:{rest % 60:02d}"
    return f"{hours}:{text}" if hours else text


# --- parse_timestamp -----------------------------------------------------------


def test_parse_timestamp_minutes_seconds():
    assert parse_timestamp("01:27") == 87


def test_parse_timestamp_zero():
    assert parse_timestamp("00:00") == 0


def test_parse_timestamp_hours():
    assert parse_timestamp("1:02:03") == brute_force_seconds("1:02:03") == 3723


@pytest.mark.parametrize(
    "text", ["01:60", "60:00", "1:62:03", "ab:cd", "12", "1:2", "1:02:3", ":05", "01:05:06:07", "99:59:59"]
)
def test_parse_timestamp_rejects(text):
    assert parse_timestamp(text) is None


def test_timestamp_round_trip_random():
    rng = random.Random(99)
    for _ in range(300):
        seconds = rng.randrange(0, 359999)
        text = render_timestamp(seconds)
        assert parse_timestamp(text) == seconds == brute_force_seconds(text)


# --- keyframes of parse_video_output ----------------------------------------------


def test_parse_keyframes_snow_white_fixture(snow_white_outputs):
    gemini = parse_video_output(snow_white_outputs["Gemini-2-Flash"]).keyframes
    assert len(gemini) == 16
    assert gemini[0] == KeyframeEntry(8, "Magic Mirror reveals an angry face")
    assert gemini[-1] == KeyframeEntry(545, "Snow White lies in a glass coffin as prince kneels")

    qwen = parse_video_output(snow_white_outputs["Qwen-7B"]).keyframes
    assert len(qwen) == 6
    assert qwen[0] == KeyframeEntry(0, "Introduction of characters and setting")


def test_parse_keyframes_no_timestamps():
    assert parse_video_output("Just a plain paragraph about a video.\nNothing timed here.").keyframes == []


def test_parse_keyframes_dedup_and_order():
    text = "\n".join(
        [
            "(00:05, alpha)",
            "(00:05, alpha)",
            "00:09 - beta",
            "(00:05, alpha)",
            "00:07 gamma",
        ]
    )
    entries = parse_video_output(text).keyframes
    assert entries == [
        KeyframeEntry(5, "alpha"),
        KeyframeEntry(9, "beta"),
        KeyframeEntry(7, "gamma"),
    ]


def random_caption(rng: random.Random) -> str:
    words = ["queen", "mirror", "forest", "dance", "apple", "stage", "lights", "chorus"]
    caption = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.2:
        caption += " (wide shot)"
    return caption


def test_parse_keyframes_generated_round_trip():
    # Generator oracle: N well-formed lines shuffled with noise lines parse to
    # exactly the N entries in their original order.
    rng = random.Random(1234)
    for _ in range(30):
        entries = []
        seen = set()
        for _ in range(rng.randint(1, 12)):
            key = (rng.randrange(0, 5400), random_caption(rng))
            if key in seen:
                continue
            seen.add(key)
            entries.append(KeyframeEntry(*key))
        lines = []
        for i, entry in enumerate(entries):
            ts = render_timestamp(entry.timestamp_s)
            style = i % 3
            if style == 0:
                lines.append(f"({ts}, {entry.caption})")
            elif style == 1:
                lines.append(f"{ts} - {entry.caption}")
            else:
                lines.append(f"{ts} {entry.caption}")
            if rng.random() < 0.5:
                lines.append(rng.choice(["", "and then the scene changes", "no timing info here"]))
        parsed = parse_video_output("\n".join(lines)).keyframes
        assert parsed == entries


def test_keyframe_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        entry = KeyframeEntry(rng.randrange(0, 359999), random_caption(rng))
        # the canonical "(MM:SS, caption)" line the summary prompt asks for
        [parsed] = parse_video_output(f"({render_timestamp(entry.timestamp_s)}, {entry.caption})").keyframes
        assert parsed == entry


def test_keyframe_caption_truncated():
    long_caption = "x" * 2000
    [entry] = parse_video_output(f"(00:10, {long_caption})").keyframes
    assert entry.caption == "x" * MAX_CAPTION_LEN


def test_keyframe_entry_invariants():
    with pytest.raises(ValueError):
        KeyframeEntry(-1, "ok")
    with pytest.raises(ValueError):
        KeyframeEntry(359999, "ok")
    with pytest.raises(ValueError):
        KeyframeEntry(5, "")
    with pytest.raises(ValueError):
        KeyframeEntry(5, "two\nlines")


# --- parse_mcq -------------------------------------------------------------------


def test_parse_mcq_explicit():
    answer = parse_mcq("The answer is A.")
    assert (answer.letter, answer.confidence_source) == ("A", "explicit")


def test_parse_mcq_bare_letter():
    answer = parse_mcq("B")
    assert (answer.letter, answer.confidence_source) == ("B", "extracted")


def test_parse_mcq_absent():
    with pytest.raises(NoAnswerFound):
        parse_mcq("the options are unclear")


@pytest.mark.parametrize(
    "text,letter,source",
    [
        ("Answer: C", "C", "explicit"),
        ("**Answer:** D", "D", "explicit"),
        ("answer is (B)", "B", "explicit"),
        ("I would pick option C here.", "C", "extracted"),
        ("A. It is a news report", "A", "extracted"),
    ],
)
def test_parse_mcq_variants(text, letter, source):
    answer = parse_mcq(text)
    assert (answer.letter, answer.confidence_source) == (letter, source)


def test_parse_mcq_shares_one_answer_per_letter_and_source():
    assert parse_mcq("The answer is B.") is parse_mcq("answer: (b)")
    assert parse_mcq("B") is parse_mcq("I would pick B here.")
    assert parse_mcq("B") is not parse_mcq("Answer: B")


def test_parse_mcq_letter_always_in_range():
    rng = random.Random(77)
    alphabet = "ABCD"
    for _ in range(200):
        letter = rng.choice(alphabet)
        text = rng.choice(["Answer: {0}", "{0}", "the answer is {0}.", "({0})"]).format(letter)
        assert parse_mcq(text).letter in alphabet


# --- parse_video_output ------------------------------------------------------------


def test_parse_video_output_snow_white(snow_white_outputs):
    gemini = parse_video_output(snow_white_outputs["Gemini-2-Flash"])
    assert gemini.valid
    assert len(gemini.keyframes) == 16
    assert gemini.summary.startswith("A stage performance of Snow White.")
    assert "Key Frames" not in gemini.summary

    qwen = parse_video_output(snow_white_outputs["Qwen-7B"])
    assert qwen.valid
    assert len(qwen.keyframes) == 6
    assert qwen.keyframes[0] == KeyframeEntry(0, "Introduction of characters and setting")


def test_parse_video_output_empty():
    assert parse_video_output("").valid is False


def test_parse_video_output_header_boundary():
    text = "Summary sentence one.\nSummary sentence two.\nKEY FRAMES:\n(00:05, first moment)"
    parsed = parse_video_output(text)
    assert parsed.summary == "Summary sentence one.\nSummary sentence two."
    assert parsed.keyframes == [KeyframeEntry(5, "first moment")]


def test_parse_video_output_keyframes_only_is_invalid():
    parsed = parse_video_output("(00:05, lone keyframe)")
    assert parsed.summary == ""
    assert parsed.valid is False
    assert len(parsed.keyframes) == 1
