"""Validator for the ``scenario-schema`` document.

:func:`check_scenario` validates a parsed ``repro.scenario/v1``
document (:data:`~repro.scenario.spec.SCENARIO_SCHEMA`); the
:mod:`repro.analyze.checkers.documents` registry routes scenario files
to it, so ``repro lint examples/scenarios/*.json`` is the CI entry
point.

The validation itself is delegated to the scenario layer's own
constructors — :func:`repro.scenario.injection_from_dict` rejects
unknown kinds, unknown fields, and malformed parameters — so the
checker can never drift from what the engines actually accept.
"""

from __future__ import annotations

from typing import List

from repro.scenario.spec import SCENARIO_SCHEMA


def check_scenario(doc) -> List[str]:
    """Return a list of problem strings (empty = valid)."""
    from repro.errors import ConfigurationError
    from repro.scenario.spec import Scenario, injection_from_dict

    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCENARIO_SCHEMA:
        problems.append(
            f"schema must be {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        problems.append("'name' must be a string")
    desc = doc.get("description")
    if desc is not None and not isinstance(desc, str):
        problems.append("'description' must be a string")

    injections = doc.get("injections")
    if not isinstance(injections, list):
        problems.append("'injections' list is missing")
        return problems
    if not injections:
        problems.append("'injections' is empty — the scenario does nothing")
    for i, inj in enumerate(injections):
        try:
            injection_from_dict(inj)
        except ConfigurationError as exc:
            problems.append(f"injections[{i}]: {exc}")

    if not problems:
        # The parts validated; confirm the whole document round-trips
        # through the DSL (catches cross-field problems the per-
        # injection pass cannot see).
        try:
            Scenario.from_dict(doc)
        except ConfigurationError as exc:
            problems.append(str(exc))
    return problems
