import math
import random

import pytest

from videval.errors import InvalidOverlap, NotAVideo, ProbeFailure, UnsupportedFormat
from videval.media import (
    AUDIO_CONTAINERS,
    VIDEO_CONTAINERS,
    MediaAsset,
    MediaToolRunner,
    classify_container,
    plan_frames,
    plan_split,
    probe,
)


def video_asset(duration_s, container="mp4") -> MediaAsset:
    return MediaAsset(
        path=f"clip.{container}",
        kind="video",
        container=container,
        duration_s=duration_s,
        has_audio_stream=True,
        width_px=640,
        height_px=360,
    )


# --- probe / classification ------------------------------------------------


def test_probe_video(tmp_path, fake_probe_cmd):
    path = tmp_path / "lecture_d120.m4v"
    path.write_bytes(b"fake video bytes")
    asset = probe(path, MediaToolRunner(probe_cmd=fake_probe_cmd))
    assert asset.kind == "video"
    assert asset.container == "m4v"
    assert asset.duration_s == 120.0
    assert asset.has_audio_stream
    assert asset.width_px == 640 and asset.height_px == 360


def test_probe_audio(tmp_path, fake_probe_cmd):
    path = tmp_path / "talk.flac"
    path.write_bytes(b"fake audio bytes")
    asset = probe(path, MediaToolRunner(probe_cmd=fake_probe_cmd))
    assert asset.kind == "audio"
    assert asset.container == "flac"
    assert asset.width_px is None and asset.height_px is None


def test_probe_unsupported_extension(tmp_path, fake_probe_cmd):
    path = tmp_path / "doc.pdf"
    path.write_bytes(b"%PDF-1.4")
    with pytest.raises(UnsupportedFormat):
        probe(path, MediaToolRunner(probe_cmd=fake_probe_cmd))


def test_probe_missing_file(tmp_path, fake_probe_cmd):
    with pytest.raises(ProbeFailure):
        probe(tmp_path / "nope.mp4", MediaToolRunner(probe_cmd=fake_probe_cmd))


def test_probe_tool_failure(tmp_path, fake_probe_cmd):
    path = tmp_path / "broken.mp4"
    path.write_bytes(b"x")
    with pytest.raises(ProbeFailure):
        probe(path, MediaToolRunner(probe_cmd=fake_probe_cmd))


def test_probe_runs_the_template_the_runner_holds_now(tmp_path, fake_probe_cmd):
    path = tmp_path / "talk.flac"
    path.write_bytes(b"fake audio bytes")
    tool = MediaToolRunner(probe_cmd=f"{tmp_path / 'no-such-tool'} -q {{input}}")
    for _ in range(2):  # the second call takes the template's cached split
        with pytest.raises(ProbeFailure, match=f"media tool not found: {tmp_path / 'no-such-tool'}$"):
            probe(path, tool)
    tool.probe_cmd = fake_probe_cmd
    assert probe(path, tool).container == "flac"


def test_probe_bad_json(tmp_path, fake_probe_cmd):
    path = tmp_path / "badjson.mp4"
    path.write_bytes(b"x")
    with pytest.raises(ProbeFailure):
        probe(path, MediaToolRunner(probe_cmd=fake_probe_cmd))


class DocumentTool:
    """A probe tool that returns the given document for every file."""

    def __init__(self, document):
        self.document = document

    def probe(self, path):
        return self.document


VIDEO_STREAM = {"codec_type": "video", "width": 640, "height": 360}


@pytest.mark.parametrize(
    "document",
    [
        [],
        {"format": "mp4"},
        {"format": {"format_name": ["mp4"]}},
        {"streams": {"codec_type": "video"}},
        {"streams": ["video"]},
        {"streams": [dict(VIDEO_STREAM, disposition=["attached_pic"])]},
        {"streams": [dict(VIDEO_STREAM, width="wide")]},
        {"streams": [dict(VIDEO_STREAM, height=360.5)]},
        {"streams": [dict(VIDEO_STREAM, width=True)]},
        {"streams": [dict(VIDEO_STREAM, width=-640)]},
    ],
)
def test_probe_document_of_another_shape_is_a_probe_failure(tmp_path, document):
    path = tmp_path / "clip.mp4"
    path.write_bytes(b"x")
    with pytest.raises(ProbeFailure, match=f"probe output for {path} does not fit"):
        probe(path, DocumentTool(document))


def test_classification_total_over_supported_lists():
    ext_for = {
        "mp4": ".mp4", "m4v": ".m4v", "quicktime": ".mov", "wmv": ".wmv",
        "webm": ".webm", "msvideo": ".avi", "mpg": ".mpg", "3gpp": ".3gp",
        "mp3": ".mp3", "wav": ".wav", "m4a": ".m4a", "flac": ".flac",
    }
    for tag, ext in ext_for.items():
        assert classify_container(f"file{ext}") == tag
    assert set(ext_for) == set(VIDEO_CONTAINERS) | set(AUDIO_CONTAINERS)
    for bad in ("file.pdf", "file.mkv", "file.txt", "file"):
        with pytest.raises(UnsupportedFormat):
            classify_container(bad)


def test_classification_prefers_probe_metadata():
    # extension lies, probe format name wins
    assert classify_container("mislabeled.mp4", "asf") == "wmv"
    # iso-family probe name keeps the extension's finer-grained tag
    assert classify_container("clip.m4v", "mov,mp4,m4a,3gp,3g2,mj2") == "m4v"
    assert classify_container("clip.mov", "mov,mp4,m4a,3gp,3g2,mj2") == "quicktime"
    assert classify_container("clip.webm", "matroska,webm") == "webm"


def test_extract_frame_command_template(tmp_path):
    import sys

    copier = tmp_path / "copier.py"
    copier.write_text(
        "import shutil, sys\n"
        "assert float(sys.argv[2]) >= 0\n"
        "shutil.copy(sys.argv[1], sys.argv[3])\n",
        encoding="utf-8",
    )
    source = tmp_path / "clip.mp4"
    source.write_bytes(b"frame source")
    out = tmp_path / "frame_00010.jpg"
    tool = MediaToolRunner(
        extract_cmd=f"{sys.executable} {copier} {{input}} {{timestamp}} {{output}}"
    )
    written = tool.extract_frame(source, 10.0, out)
    assert written.read_bytes() == b"frame source"


def test_extract_frame_tool_failure(tmp_path):
    import sys

    failer = tmp_path / "failer.py"
    failer.write_text("import sys; sys.exit(1)\n", encoding="utf-8")
    source = tmp_path / "clip.mp4"
    source.write_bytes(b"x")
    tool = MediaToolRunner(
        extract_cmd=f"{sys.executable} {failer} {{input}} {{timestamp}} {{output}}"
    )
    with pytest.raises(ProbeFailure):
        tool.extract_frame(source, 1.0, tmp_path / "o.jpg")


# --- plan_frames -------------------------------------------------------------


def test_plan_frames_grid():
    plan = plan_frames(video_asset(60.0), fps=0.1)
    assert plan.timestamps_s == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]


def test_plan_frames_midpoint_fallback():
    plan = plan_frames(video_asset(60.0), fps=0.01)
    assert plan.timestamps_s == [30.0]


def test_plan_frames_eleven_seconds():
    # Independent oracle: brute-force enumeration of the sampling grid.
    duration, fps = 11.0, 1.0
    expected = []
    t = 0
    while t < duration:
        expected.append(float(t))
        t += 1
    plan = plan_frames(video_asset(duration), fps=fps)
    assert plan.timestamps_s == expected
    assert len(plan.timestamps_s) == 11


def test_plan_frames_rejects_audio():
    asset = MediaAsset(
        path="talk.flac", kind="audio", container="flac",
        duration_s=30.0, has_audio_stream=True,
    )
    with pytest.raises(NotAVideo):
        plan_frames(asset, fps=1.0)


def test_plan_frames_rejects_bad_fps():
    with pytest.raises(ValueError):
        plan_frames(video_asset(10.0), fps=0.0)


def test_plan_frames_properties():
    rng = random.Random(2024)
    for _ in range(200):
        duration = rng.uniform(0.5, 4000.0)
        fps = rng.choice([1.0, 0.5, 0.1, 0.05, 0.01, 2.0])
        plan = plan_frames(video_asset(duration), fps=fps)
        assert plan.timestamps_s, "non-empty for positive duration"
        assert all(0 <= t < duration for t in plan.timestamps_s)
        assert all(a < b for a, b in zip(plan.timestamps_s, plan.timestamps_s[1:]))


# --- plan_split ----------------------------------------------------------------


def check_coverage(segments, duration, overlap):
    """Brute-force interval checker: full coverage, ordered, pairwise overlap."""
    assert segments[0][0] == 0.0
    assert segments[-1][1] == pytest.approx(duration)
    for (s0, e0), (s1, e1) in zip(segments, segments[1:]):
        assert s1 < e0 or math.isclose(s1, e0), "no gap between segments"
        assert e0 - s1 == pytest.approx(overlap, abs=1e-9)
    covered = sum(e - s for s, e in segments)
    assert covered >= duration - 1e-9


def test_plan_split_exact_division():
    plan = plan_split(video_asset(3600.0), 600.0, 0.0)
    assert len(plan.segments) == 6
    check_coverage(plan.segments, 3600.0, 0.0)


def test_plan_split_short_video():
    plan = plan_split(video_asset(100.0), 600.0)
    assert plan.segments == [(0.0, 100.0)]


def test_plan_split_with_overlap():
    plan = plan_split(video_asset(1000.0), 600.0, 60.0)
    assert plan.segments == [(0.0, 600.0), (540.0, 1000.0)]
    check_coverage(plan.segments, 1000.0, 60.0)


def test_plan_split_rejects_bad_overlap():
    with pytest.raises(InvalidOverlap):
        plan_split(video_asset(100.0), 60.0, 60.0)
    with pytest.raises(InvalidOverlap):
        plan_split(video_asset(100.0), 60.0, -1.0)


def test_plan_split_properties():
    rng = random.Random(7)
    for _ in range(200):
        duration = rng.uniform(1.0, 7200.0)
        length = rng.uniform(30.0, 900.0)
        overlap = rng.uniform(0.0, length * 0.8)
        plan = plan_split(video_asset(duration), length, overlap)
        assert all(e - s <= length + 1e-9 for s, e in plan.segments)
        if duration > length:
            expected_count = math.ceil((duration - overlap) / (length - overlap) - 1e-12)
            assert len(plan.segments) == expected_count
            check_coverage(plan.segments, duration, overlap)
        else:
            assert plan.segments == [(0.0, duration)]


def test_probe_audio_only_iso_media(tmp_path, fake_probe_cmd):
    # an .m4a probes under the combined iso-family name but stays audio
    path = tmp_path / "voice.m4a"
    path.write_bytes(b"fake m4a")
    asset = probe(path, MediaToolRunner(probe_cmd=fake_probe_cmd))
    assert asset.kind == "audio"
    assert asset.container == "m4a"
