"""Machine-readable run reports. The JSON form is the primary one (stable
keys, round-trips losslessly); the text rendering is derived from it."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

EXIT_OK = 0          # all verdicts true / metrics computed
EXIT_PROPERTY = 1    # a checked property is false / a regression mismatch
EXIT_USAGE = 2       # usage or definition error
EXIT_RESOURCE = 3    # a configured cap was exceeded


@dataclass
class TaskReport:
    kind: str
    name: str
    status: str              # 'ok' | 'fail' | 'error'
    value: object = None     # metric value / verdict
    expected: object = None
    detail: dict = field(default_factory=dict)


@dataclass
class RunReport:
    command: list[str]
    tasks: list[TaskReport] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    exit_status: int = EXIT_OK
    seed: Optional[int] = None

    def add(self, task: TaskReport):
        self.tasks.append(task)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        tasks = [TaskReport(**t) for t in raw.pop("tasks", [])]
        return cls(tasks=tasks, **raw)

    def to_text(self) -> str:
        lines = []
        for t in self.tasks:
            head = f"[{t.kind}] {t.name}: {t.status}"
            if t.value is not None:
                head += f" (value: {t.value}"
                if t.expected is not None:
                    head += f", expected: {t.expected}"
                head += ")"
            lines.append(head)
            for key in ("reason", "witness_strategy", "witness_path", "witness_moves", "error"):
                if key in t.detail and t.detail[key]:
                    val = t.detail[key]
                    if isinstance(val, list):
                        lines.append(f"    {key}:")
                        lines.extend(f"      {v}" for v in val)
                    elif "\n" in str(val):
                        lines.append(f"    {key}:")
                        lines.extend(f"      {ln}" for ln in str(val).splitlines())
                    else:
                        lines.append(f"    {key}: {val}")
            if t.detail.get("stats"):
                lines.append("    stats: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(t.detail["stats"].items())))
        if self.stats:
            lines.append("stats: " + ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items())))
        lines.append(f"exit: {self.exit_status}")
        return "\n".join(lines)
