"""Rink-player tracking, identification, and evaluation toolkit."""

from .core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    ParseError,
    ProbVector,
    RosterVector,
    TeamLabel,
    Track,
    ValidationError,
    build_roster_vector,
    default_vocabulary,
    parse_detection_file,
)
from .tracker import SortTracker, TrackerParams, hungarian, track

__all__ = [
    "BoundingBox",
    "ClassVocabulary",
    "Detection",
    "ParseError",
    "ProbVector",
    "RosterVector",
    "SortTracker",
    "TeamLabel",
    "Track",
    "TrackerParams",
    "ValidationError",
    "build_roster_vector",
    "default_vocabulary",
    "hungarian",
    "parse_detection_file",
    "track",
]
