"""Deterministic CSV/JSON table emission.

Every float is serialized with 17 significant digits (%.17g), which round
trips binary64 exactly and is idempotent: emit(parse(emit(T))) is byte
identical to emit(T).  The wall-clock line is part of the header but is
carried through parses verbatim, so byte stability holds whenever the
metadata (including the recorded timestamp) is equal.  JSON cells that
are booleans or non-finite floats are written as ``json.dumps`` writes them
(true/false, NaN, Infinity, -Infinity), which ``json.loads`` reads back.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import WatermelonError

TOOL_VERSION = "0.1.0"


def fmt17(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


@dataclass
class Table:
    name: str
    params: dict
    columns: tuple
    rows: list
    generated: str = field(default="")
    version: str = "v1"

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
    head = f"# {table.name} {table.version}"
    if params:
        head += f" {params}"
    lines = [head,
             f"# tool: watermelon {TOOL_VERSION}",
             f"# generated: {table.generated}",
             ",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(fmt17(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> Table:
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("# "):
        raise WatermelonError("not a watermelon CSV table")
    head = lines[0][2:].split()
    name, version = head[0], head[1]
    params = {}
    for tok in head[2:]:
        k, _, v = tok.partition("=")
        params[k] = v
    if not lines[1].startswith("# tool:") or not lines[2].startswith("# generated: "):
        raise WatermelonError("missing provenance header lines")
    generated = lines[2][len("# generated: "):]
    columns = tuple(lines[3].split(","))
    rows = []
    for line in lines[4:]:
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            if cell == "-0":  # negative zero must stay a float to round trip
                cells.append(-0.0)
                continue
            try:
                cells.append(int(cell))
            except ValueError:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
        rows.append(tuple(cells))
    return Table(name=name, params=params, columns=columns, rows=rows,
                 generated=generated, version=version)


def to_json(table: Table) -> str:
    """Hand-rolled dump so floats keep the 17-digit convention."""
    table.validate()
    buf = io.StringIO()
    meta = {"name": table.name, "version": table.version,
            "tool": f"watermelon {TOOL_VERSION}",
            "generated": table.generated,
            "params": {k: fmt17(v) for k, v in table.params.items()}}
    buf.write('{"meta": ')
    buf.write(json.dumps(meta, sort_keys=True))
    buf.write(', "columns": ')
    buf.write(json.dumps(list(table.columns)))
    buf.write(', "rows": [')
    for i, row in enumerate(table.rows):
        if i:
            buf.write(", ")
        buf.write("[" + ", ".join(_json_cell(v) for v in row) + "]")
    buf.write("]}")
    buf.write("\n")
    return buf.getvalue()


def _json_cell(v) -> str:
    if isinstance(v, (str, bool)) or (isinstance(v, float)
                                      and not math.isfinite(v)):
        return json.dumps(v)
    return fmt17(v)


def parse_json(text: str) -> Table:
    obj = json.loads(text)
    meta = obj["meta"]
    return Table(name=meta["name"], params=dict(meta["params"]),
                 columns=tuple(obj["columns"]),
                 rows=[tuple(r) for r in obj["rows"]],
                 generated=meta["generated"], version=meta["version"])


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
