"""Generic experiment-result records shared by the benchmark harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = ["ExperimentRecord"]


@dataclass
class ExperimentRecord:
    """Container tying an experiment id to its measured rows.

    ``experiment`` matches the ids used in DESIGN.md / EXPERIMENTS.md (e.g.
    ``"table1"``, ``"fig8"``).  ``to_json`` gives benchmarks an easy way to dump
    machine-readable results next to the human-readable tables.
    """

    experiment: str
    description: str
    rows: list[dict] = field(default_factory=list)

    def add(self, **row: object) -> None:
        """Append one result row."""
        self.rows.append(dict(row))

    def to_json(self, indent: int = 2) -> str:
        """Serialize the record (dataclass rows are converted to dicts)."""
        def _convert(value: object) -> object:
            if hasattr(value, "__dataclass_fields__"):
                return asdict(value)  # type: ignore[arg-type]
            return value

        payload = {
            "experiment": self.experiment,
            "description": self.description,
            "rows": [{k: _convert(v) for k, v in row.items()} for row in self.rows],
        }
        return json.dumps(payload, indent=indent, default=str)
