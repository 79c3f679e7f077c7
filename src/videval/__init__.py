"""videval: desk-scale evaluation harness for long-video VLM benchmarking."""

__version__ = "0.1.0"
