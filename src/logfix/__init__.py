"""Toolkit for finding and fixing factual defects in logging statements.

The pipeline: mine log-centric changes from project history, synthesize a
labeled defect corpus by mutating clean statements, train a five-class
detector, retrieve similar historical fixes, and drive an LLM checker/updater
pair to propose corrected statements.
"""

__version__ = "0.1.0"

from logfix.model import (
    DefectLabel,
    LabeledSample,
    LogCentricChange,
    LoggingStatement,
    LogLevel,
    MethodContext,
)

__all__ = [
    "DefectLabel",
    "LabeledSample",
    "LogCentricChange",
    "LoggingStatement",
    "LogLevel",
    "MethodContext",
]
