"""videval: desk-scale evaluation harness for long-video VLM benchmarking."""

from .benchmark import (
    BenchmarkItem,
    RunManifest,
    RunPlan,
    RunRecord,
    build_question_prompt,
    classify_outcome,
    load_dataset,
    run_benchmark,
)
from .knowledge_graph import (
    EvalGraph,
    GraphMetrics,
    LayoutParams,
    NodePosition,
    build_comparison_graph,
    dijkstra,
    export_dot,
    export_json,
    fr_layout,
    graph_metrics,
)
from .media import (
    FramePlan,
    MediaAsset,
    MediaToolRunner,
    SplitPlan,
    plan_frames,
    plan_split,
    probe,
)
from .parsing import (
    KeyframeEntry,
    McqAnswer,
    ParsedVideoOutput,
    parse_keyframes,
    parse_mcq,
    parse_timestamp,
    parse_video_output,
)
from .providers import (
    CassetteStore,
    ConditionTag,
    ModelRequest,
    ModelResponse,
    ProviderHub,
    ProviderSettings,
    Transcript,
    TranscriptSegment,
)
from .scoring import (
    MatchVector,
    RowTriple,
    ScoreReport,
    aggregate,
    keyframe_match,
    matching_node_score,
    mcq_accuracy,
)

__version__ = "0.1.0"
