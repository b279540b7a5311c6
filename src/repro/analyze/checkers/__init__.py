"""Checker registry: the suite ``repro lint`` runs by default."""

from repro.analyze.checkers.collectives import CollectiveMatchingChecker
from repro.analyze.checkers.documents import DocumentChecker, document_checkers
from repro.analyze.checkers.hygiene import HygieneChecker
from repro.analyze.checkers.precision_flow import PrecisionFlowChecker
from repro.analyze.checkers.schedule import (
    CommRaceChecker,
    CommScheduleChecker,
    TraceConformanceChecker,
)
from repro.analyze.checkers.tag_space import TagSpaceChecker

__all__ = [
    "CollectiveMatchingChecker",
    "CommRaceChecker",
    "CommScheduleChecker",
    "DocumentChecker",
    "HygieneChecker",
    "PrecisionFlowChecker",
    "TagSpaceChecker",
    "TraceConformanceChecker",
    "all_checkers",
]


def all_checkers(require_layers: bool = False):
    """Fresh instances of the full default checker suite."""
    return [
        PrecisionFlowChecker(),
        TagSpaceChecker(),
        CollectiveMatchingChecker(),
        HygieneChecker(),
        *document_checkers(require_layers=require_layers),
        CommScheduleChecker(),
        CommRaceChecker(),
        TraceConformanceChecker(),
    ]
