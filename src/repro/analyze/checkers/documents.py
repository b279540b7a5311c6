"""Artifact documents: one registry decides which validator owns a JSON file.

``repro lint`` validates the JSON artifacts the repo writes (traces,
profiles, health reports, fleet documents, scenarios, campaign stores).
Each :data:`DOCUMENTS` row names a checker id, the ``schema`` tags it
validates, the signature of a mis-tagged document of its kind, and its
validator — a plain function returning problem strings.  :func:`owner`
is the only place that decides which row a parsed document belongs to:

1. an exact registered ``schema`` tag wins;
2. a tag the repo writes but does not validate (:data:`UNVALIDATED_TAGS`)
   has no owner;
3. otherwise the first matching signature wins, in the order profile,
   health, fleet, scenario, campaign;
4. otherwise the caller's fallback: ``trace-schema`` for a ``.json``
   file (Chrome traces and ``run --json`` reports carry no ``schema``
   tag), nobody for a ``.jsonl`` row.

Every row is exposed as one :class:`DocumentChecker`, so each id stays
listable and selectable, but a document is reported under its owner
only.  A file that is not strict JSON is routed by a lenient parse and
gets one "not strict JSON" finding under its owner; content that does
not parse at all goes to the first document checker of the run
(``trace-schema`` in the default suite).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.analyze.checkers.campaign_schema import check_store_document
from repro.analyze.checkers.health_schema import check_health_report
from repro.analyze.checkers.scenario_schema import check_scenario
from repro.analyze.checkers.trace_schema import (
    check_profile_report,
    check_trace,
)
from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import ArtifactChecker
from repro.bench.hotpaths import SCHEMA as HOTPATHS_SCHEMA
from repro.campaign.engine import SUMMARY_SCHEMA
from repro.campaign.jobs import RESULT_SCHEMA, SWEEP_SCHEMA
from repro.campaign.queue import QUEUE_SCHEMA
from repro.campaign.store import STORE_SCHEMA
from repro.obs.analysis.report import PROFILE_SCHEMA
from repro.obs.fleet import FLEET_SCHEMA, check_fleet_document
from repro.obs.health.report import HEALTH_SCHEMA
from repro.scenario.spec import SCENARIO_SCHEMA

#: checker id of unclaimed ``.json`` documents
TRACE = "trace-schema"

#: tags the repo writes but no checker validates
UNVALIDATED_TAGS = frozenset({
    QUEUE_SCHEMA, SUMMARY_SCHEMA, SWEEP_SCHEMA, HOTPATHS_SCHEMA,
})


def _has_keys(*keys: str) -> Callable[[dict], bool]:
    return lambda doc: all(key in doc for key in keys)


def _tag_prefix(prefix: str) -> Callable[[dict], bool]:
    return lambda doc: str(doc.get("schema", "")).startswith(prefix)


@dataclass(frozen=True)
class DocumentKind:
    """One registry row: checker id → tags → signature → validator."""

    id: str
    description: str
    tags: Tuple[str, ...]
    #: recognizes a document of this kind whose tag is wrong or missing
    signature: Optional[Callable[[dict], bool]]
    validate: Callable[[Any], List[str]]


#: the registry, in ``repro lint --list`` order; signatures are tried
#: in this order too
DOCUMENTS = (
    DocumentKind(
        TRACE, "exported Chrome-trace JSON matches the documented schema",
        (), None, check_trace,
    ),
    DocumentKind(
        "profile-schema",
        "repro profile JSON reports match the documented schema",
        (PROFILE_SCHEMA,), _has_keys("phase_seconds", "critical_path"),
        check_profile_report,
    ),
    DocumentKind(
        "health-report",
        "health report JSON matches the documented schema",
        (HEALTH_SCHEMA,), _has_keys("findings", "degraded_ranks"),
        check_health_report,
    ),
    DocumentKind(
        "fleet-schema",
        "repro fleet JSON documents match the documented schema",
        (FLEET_SCHEMA,), _has_keys("heatmap", "trend"),
        check_fleet_document,
    ),
    DocumentKind(
        "scenario-schema",
        "scenario JSON documents parse under the repro.scenario DSL",
        (SCENARIO_SCHEMA,), _has_keys("injections"), check_scenario,
    ),
    DocumentKind(
        "campaign-store",
        "campaign store rows/exports validate against "
        "repro.campaign.result/v1",
        (RESULT_SCHEMA, STORE_SCHEMA), _tag_prefix("repro.campaign."),
        check_store_document,
    ),
)

_BY_TAG = {tag: kind.id for kind in DOCUMENTS for tag in kind.tags}


def owner(doc, fallback: Optional[str] = None) -> Optional[str]:
    """Checker id that validates ``doc`` (None: nobody does)."""
    if not isinstance(doc, dict):
        return fallback
    tag = doc.get("schema")
    if isinstance(tag, str):
        if tag in _BY_TAG:
            return _BY_TAG[tag]
        if tag in UNVALIDATED_TAGS:
            return None
    for kind in DOCUMENTS:
        if kind.signature is not None and kind.signature(doc):
            return kind.id
    return fallback


#: stands in for a document that could not be parsed
_UNPARSED = object()


def _fail_on_constant(token):
    raise ValueError(f"non-strict JSON token {token!r}")


def _documents(path: str) -> Iterator[Tuple[int, Any, Optional[str]]]:
    """``(line, document, problem)`` for a ``.json`` file (line 0) or
    each non-blank ``.jsonl`` row.  ``problem`` is set when the content
    is not (strict) JSON; the document is then the lenient parse, or
    :data:`_UNPARSED`."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        yield 0, _UNPARSED, f"unreadable: {exc}"
        return
    if path.endswith(".jsonl"):
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                yield i, json.loads(line), None
            except ValueError as exc:
                yield i, _UNPARSED, f"row is not valid JSON: {exc}"
        return
    try:
        yield 0, json.loads(text, parse_constant=_fail_on_constant), None
    except ValueError as exc:
        try:
            doc = json.loads(text)
        except ValueError:
            doc = _UNPARSED
        yield 0, doc, f"not strict JSON: {exc}"


class DocumentChecker(ArtifactChecker):
    """One :data:`DOCUMENTS` row as a lint checker: reports the
    documents :func:`owner` assigns to its kind."""

    def __init__(self, kind: DocumentKind,
                 validate: Optional[Callable[[Any], List[str]]] = None):
        self.id = kind.id
        self.description = kind.description
        self.validate = validate or kind.validate
        #: owner of unparseable content; set per run by :meth:`bind`
        self.fallback = TRACE

    def bind(self, suite: Sequence[ArtifactChecker]) -> None:
        # With --select, the selected checker still reports a file it
        # cannot parse.
        self.fallback = next(
            c.id for c in suite if isinstance(c, DocumentChecker)
        )

    def matches(self, path: str) -> bool:
        return path.endswith((".json", ".jsonl"))

    def check_file(self, path: str) -> Iterable[Finding]:
        unclaimed = TRACE if path.endswith(".json") else None
        for line, doc, problem in _documents(path):
            if doc is _UNPARSED:
                claimant = self.fallback
            else:
                claimant = owner(doc, unclaimed)
            if claimant != self.id:
                continue
            for message in [problem] if problem else self.validate(doc):
                yield Finding(
                    checker=self.id, path=path, line=line,
                    severity=Severity.ERROR, message=message,
                )


def document_checkers(require_layers: bool = False) -> List[DocumentChecker]:
    """One checker per registry row, in :data:`DOCUMENTS` order."""
    trace = partial(check_trace, require_layers=require_layers)
    return [
        DocumentChecker(kind, trace if kind.id == TRACE else None)
        for kind in DOCUMENTS
    ]
