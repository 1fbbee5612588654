"""Text renderers for EIL results (the Lotus Notes GUI substitute).

Renders the two views the paper's figures show: the ranked deal list
with tower ordering (Figure 5) and the per-deal synopsis tabs
(Figure 6), plus the activity-then-documents result layout (Figure 9).
Plain text keeps the reproduction front-end-agnostic.
"""

from __future__ import annotations

from typing import List

from repro.core.context import DealSynopsis
from repro.core.search import EilResults

__all__ = ["render_deal_list", "render_synopsis", "render_results"]


def render_deal_list(synopses: List[DealSynopsis]) -> str:
    """The Figure 5 view: each deal with its ordered towers."""
    lines: List[str] = []
    for synopsis in synopses:
        lines.append(synopsis.name)
        towers = ", ".join(synopsis.towers) or "(no extracted scope)"
        extras = [
            value
            for key in ("Out Sourcing Consultant", "Industry",
                        "Total Contract Value")
            if (value := synopsis.overview.get(key, ""))
        ]
        lines.append(f"  {towers}; " + "; ".join(extras))
    return "\n".join(lines)


def render_synopsis(synopsis: DealSynopsis) -> str:
    """The Figure 6 view: the synopsis tabs of one deal."""
    lines = [f"Synopsis for {synopsis.name}", "=" * 40, "[Overview]"]
    for key, value in synopsis.overview.items():
        lines.append(f"  {key}: {value}")
    lines.append(f"  Towers: {', '.join(synopsis.towers)}")
    lines.append("[People]")
    for category in sorted(synopsis.people):
        lines.append(f"  {category}:")
        for contact in synopsis.people[category]:
            details = ", ".join(
                part
                for part in (contact.role, contact.email, contact.phone,
                             contact.organization)
                if part
            )
            status = "" if contact.active else " (no longer active)"
            lines.append(f"    {contact.name} ({details}){status}")
    lines.append("[Win Strategies]")
    for strategy in synopsis.win_strategies:
        lines.append(f"  - {strategy}")
    lines.append("[Client References]")
    for reference in synopsis.client_references:
        lines.append(f"  - {reference}")
    lines.append("[Technology Solutions]")
    for solution in synopsis.technology_solutions:
        tower = f" ({solution['tower']})" if solution.get("tower") else ""
        lines.append(f"  - {solution['term']}{tower}")
    return "\n".join(lines)


_DEGRADED_BANNERS = {
    "no-synopsis": (
        "[degraded: synopsis store unavailable — keyword-only results, "
        "no business-context ranking]"
    ),
    "no-index": (
        "[degraded: search index unavailable — synopsis matches and "
        "contacts only, no documents]"
    ),
}


def render_results(results: EilResults) -> str:
    """The Figure 9 view: activities first, then each one's documents.

    A degraded result (see the ladder in :mod:`repro.core.search`) is
    rendered with a leading banner naming the missing substrate, and on
    the ``no-index`` rung each activity shows its contact list — the
    synopsis + contact-list fallback the paper prescribes whenever
    documents cannot be shown.
    """
    banner = (
        _DEGRADED_BANNERS.get(
            results.degraded,
            f"[degraded: {results.degraded}]",
        )
        if results.degraded
        else None
    )
    if not results.activities:
        message = "No matching business activities."
        return f"{banner}\n{message}" if banner else message
    best = max(
        (hit.score for activity in results.activities
         for hit in activity.documents),
        default=1.0,
    ) or 1.0
    lines: List[str] = []
    if banner:
        lines.append(banner)
    for activity in results.activities:
        lines.append(
            f"{activity.name}  (relevance {activity.score:.2f}; "
            f"{', '.join(activity.reasons) or 'keyword match'})"
        )
        if activity.documents_withheld:
            lines.append(
                "    [documents withheld: no repository access; "
                "see the synopsis People tab for contacts]"
            )
        if activity.contacts:
            lines.append(
                "    contacts: " + ", ".join(activity.contacts)
            )
        for hit in activity.documents:
            title = hit.fields.get("title", hit.doc_id)
            lines.append(f"    {hit.score / best * 100:6.2f}%  {title}")
            if hit.snippet:
                lines.append(f"            {hit.snippet}")
    return "\n".join(lines)
