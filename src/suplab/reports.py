"""Pass/fail relation reports and small convergence tables.

Every inequality checker in the library returns a :class:`RelationReport`
instead of raising, so that randomized property runs can count failures and
keep witnesses.  Convergence experiments return a :class:`Table` whose rows
are plain tuples, ready for CSV emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RelationCheck:
    """Outcome of a single inequality: signed slack >= 0 means satisfied."""

    name: str
    passed: bool
    slack: float
    note: str = ""
    witness: dict | None = None


@dataclass
class RelationReport:
    """A named bundle of relation checks."""

    subject: str
    checks: list[RelationCheck] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, name, passed, slack, note="", witness=None):
        self.checks.append(RelationCheck(name, bool(passed), float(slack), note, witness))

    def add_rows(self, name, passed, slack, note=None):
        """Add one check evaluated on a chunk of B instances at once.

        ``passed`` and ``slack`` hold one entry per instance; an instance the
        check does not apply to passes with slack +inf.  The check passes when
        every instance does; its slack is the smallest, and ``note(w)`` is
        the note of the witness instance w: the first failing one, or the
        one of smallest slack if none fails.  ``meta["violations"]`` counts
        the failing instances of each check and ``meta["failing"]`` marks
        the instances failing any check.
        """
        bad = ~np.asarray(passed, dtype=bool)
        slack = np.asarray(slack, dtype=float)
        w = int(np.argmax(bad)) if bad.any() else int(np.argmin(slack))
        self.add(name, not bad.any(), slack.min(), note(w) if note else "")
        self.meta.setdefault("violations", {})[name] = int(bad.sum())
        self.meta["failing"] = self.meta.get("failing", False) | bad

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]

    def __iter__(self):
        return iter(self.checks)

    def __len__(self):
        return len(self.checks)

    def summary(self) -> str:
        bad = self.failures()
        head = f"{self.subject}: {len(self.checks) - len(bad)}/{len(self.checks)} checks passed"
        lines = [head] + [f"  FAIL {c.name} (slack={c.slack:.3e}) {c.note}" for c in bad]
        return "\n".join(lines)


@dataclass
class Table:
    """Column-named rows plus named boolean verdicts."""

    columns: tuple[str, ...]
    rows: list[tuple]
    verdicts: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def column(self, name) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def eventually_decreasing(values, min_tail=2, rtol=1e-12) -> bool:
    """True when the trailing run of nonincreasing values has length >= min_tail.

    The checked sequences (norm errors, minimum gaps) may rise at first; the
    verdict only requires a monotone tail inside the produced range.
    """
    vals = list(values)
    if len(vals) < min_tail:
        return True
    tail = 1
    for i in range(len(vals) - 1, 0, -1):
        if vals[i] <= vals[i - 1] * (1.0 + rtol) + rtol:
            tail += 1
        else:
            break
    return tail >= min_tail
