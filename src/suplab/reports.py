"""Pass/fail relation reports and small convergence tables.

Every inequality checker in the library returns a :class:`RelationReport`
instead of raising, so that randomized property runs can count failures and
keep witnesses; each check is recorded over a batch of instances by
:meth:`RelationReport.add_rows`, which keeps one witness per check.
Convergence experiments return a :class:`Table` whose rows are plain
tuples, ready for CSV emission.
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

    def add_rows(self, name, passed, slack, note=None, witness=None):
        """Add one check evaluated on a batch of B instances at once.

        Every checker records its checks this way.  ``passed`` and ``slack``
        hold one entry per instance; an instance the check does not apply
        to passes with slack +inf.  The check passes when every instance
        does; its slack is the smallest, and ``note(w)`` and ``witness(w)``
        are the note and the witness dict of the witness instance w: the
        first failing one, or the one of smallest slack if none fails.  An
        empty batch passes with slack +inf and no note or witness.
        ``meta["violations"]`` counts the failing instances of each check
        and ``meta["failing"]`` marks the instances failing any check.
        """
        bad = ~np.asarray(passed, dtype=bool)
        slack = np.asarray(slack, dtype=float)
        w = None
        if bad.size:
            w = int(np.argmax(bad)) if bad.any() else int(np.argmin(slack))
        self.checks.append(RelationCheck(
            name, not bad.any(), float(slack.min(initial=np.inf)),
            note(w) if note and w is not None else "",
            witness(w) if witness and w is not None else None))
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


# eventually_decreasing: the shortest tail that counts and the rise it forgives
MIN_TAIL = 2
TAIL_RTOL = 1e-12


def eventually_decreasing(values) -> bool:
    """True when the trailing run of nonincreasing values has length >= MIN_TAIL.

    The checked sequences (norm errors, minimum gaps) may rise at first; the
    verdict only requires a monotone tail inside the produced range.
    """
    vals = list(values)
    if len(vals) < MIN_TAIL:
        return True
    tail = 1
    for i in range(len(vals) - 1, 0, -1):
        if vals[i] <= vals[i - 1] * (1.0 + TAIL_RTOL) + TAIL_RTOL:
            tail += 1
        else:
            break
    return tail >= MIN_TAIL
