"""Deterministic CSV/JSON table emission.

Every float is serialized with 17 significant digits (%.17g), which round
trips binary64 exactly, so two tables with equal cells and metadata (the
recorded wall-clock time included) are written to equal bytes.  JSON cells
that are booleans or non-finite floats are written as ``json.dumps`` writes
them (true/false, NaN, Infinity, -Infinity), which ``json.loads`` reads
back; a negative zero is written ``-0``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import WatermelonError

TOOL_VERSION = "0.1.0"
FORMAT_VERSION = "v1"


def fmt17(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


@dataclass
class Table:
    name: str
    params: dict
    columns: tuple
    rows: list
    generated: str = field(default="")

    def __post_init__(self):
        if self.generated == "":
            self.generated = datetime.now(timezone.utc).isoformat(timespec="seconds")

    def validate(self):
        if not self.rows:
            raise WatermelonError("refusing to emit an empty table")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise WatermelonError("row width does not match columns")


def to_csv(table: Table) -> str:
    table.validate()
    params = " ".join(f"{k}={fmt17(v)}" for k, v in table.params.items())
    head = f"# {table.name} {FORMAT_VERSION}"
    if params:
        head += f" {params}"
    lines = [head,
             f"# tool: watermelon {TOOL_VERSION}",
             f"# generated: {table.generated}",
             ",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(fmt17(v) for v in row))
    return "\n".join(lines) + "\n"


def to_json(table: Table) -> str:
    """Hand-rolled dump so floats keep the 17-digit convention."""
    table.validate()
    meta = {"name": table.name, "version": FORMAT_VERSION,
            "tool": f"watermelon {TOOL_VERSION}",
            "generated": table.generated,
            "params": {k: fmt17(v) for k, v in table.params.items()}}
    rows = ", ".join("[" + ", ".join(_json_cell(v) for v in row) + "]"
                     for row in table.rows)
    return (f'{{"meta": {json.dumps(meta, sort_keys=True)}, '
            f'"columns": {json.dumps(list(table.columns))}, "rows": [{rows}]}}\n')


def _json_cell(v) -> str:
    if isinstance(v, (str, bool)) or (isinstance(v, float)
                                      and not math.isfinite(v)):
        return json.dumps(v)
    return fmt17(v)


def emit(table: Table, fmt: str, destination) -> None:
    """Write the table as CSV or JSON to a path or file-like object."""
    if fmt == "csv":
        payload = to_csv(table)
    elif fmt == "json":
        payload = to_json(table)
    else:
        raise WatermelonError(f"unknown format {fmt!r}")
    if hasattr(destination, "write"):
        destination.write(payload)
        return
    try:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc
