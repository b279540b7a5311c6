"""Validator for the ``campaign-store`` document.

:func:`check_store_document` validates a single result row or a
``repro.campaign.store/v1`` export (``{"schema": ..., "rows": [...]}``).
The row validation lives with the owning layer
(:func:`repro.campaign.store.check_result_row`, which round-trips the
embedded job through the campaign DSL).  The
:mod:`repro.analyze.checkers.documents` registry routes store files
and ``.jsonl`` rows to it, so ``repro lint store.jsonl`` is the CI
entry point.
"""

from __future__ import annotations

from typing import List

from repro.campaign.jobs import RESULT_SCHEMA
from repro.campaign.store import STORE_SCHEMA, check_result_row


def check_store_document(doc) -> List[str]:
    """Problem strings for a store export or single row (empty = valid)."""
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") == RESULT_SCHEMA:
        return check_result_row(doc)
    if doc.get("schema") == STORE_SCHEMA:
        rows = doc.get("rows")
        if not isinstance(rows, list):
            return ["'rows' list is missing"]
        problems = []
        for i, row in enumerate(rows):
            problems.extend(f"rows[{i}]: {p}" for p in check_result_row(row))
        return problems
    return [
        f"schema must be {RESULT_SCHEMA!r} or {STORE_SCHEMA!r}, "
        f"got {doc.get('schema')!r}"
    ]
