"""The live ``/status`` view: progress counters + capacity matrix.

The capacity matrix pivots the store's records through
:func:`repro.analysis.summary.pivot_records`.  While the coordinator is
the store's only writer, the store's read cache answers a poll without
re-reading the file.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ...analysis.summary import format_matrix, pivot_records
from ..store import ResultStore
from .leases import LeaseTable


def capacity_cells(store: ResultStore) -> Dict[str, Any]:
    """JSON-safe (machine × tp) worst-case capacity pivot of a store."""
    rows, cols, cells = pivot_records(store.records())
    return {
        "rows": rows,
        "cols": cols,
        "cells": {
            f"{row}|{col}": round(value, 6)
            for (row, col), value in sorted(cells.items())
        },
    }


def status_payload(
    table: LeaseTable,
    store: ResultStore,
    campaign: str,
    workers_seen: Mapping[str, int],
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "campaign": campaign,
        "store": store.path,
        "workers": {
            worker: workers_seen[worker] for worker in sorted(workers_seen)
        },
    }
    payload.update(table.snapshot())
    payload["capacity"] = capacity_cells(store)
    return payload


def format_status(payload: Mapping[str, Any]) -> str:
    """Render a ``/status`` payload as the CLI progress block."""
    shards = payload.get("shards", {})
    stats = payload.get("stats", {})
    lines = [
        f"campaign {payload.get('campaign', '?')!r}: "
        f"{payload.get('resolved', 0)}/{payload.get('total', 0)} trial(s) "
        f"resolved ({stats.get('failed', 0)} failed), "
        f"{payload.get('open', 0)} open",
        f"shards: {shards.get('available', 0)} available, "
        f"{shards.get('leased', 0)} leased, {shards.get('done', 0)} done "
        f"(ttl {payload.get('lease_ttl_s', 0)}s, "
        f"{stats.get('leases_expired', 0)} expired lease(s) re-issued)",
        f"workers: "
        + (", ".join(
            f"{worker} ({count} req)"
            for worker, count in payload.get("workers", {}).items()
        ) or "-"),
    ]
    capacity = payload.get("capacity") or {}
    cells = {
        tuple(key.split("|", 1)): value
        for key, value in (capacity.get("cells") or {}).items()
    }
    if cells:
        lines.append(format_matrix(
            list(capacity.get("rows", [])),
            list(capacity.get("cols", [])),
            cells,
        ))
    return "\n".join(lines)
