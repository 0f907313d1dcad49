"""Answer checking: rendered output against a reference, as multisets.

Rows are compared in a canonical form: each row as JSON with sorted keys,
the rows sorted.  Comparing digests of that form is a multiset comparison
that keeps type distinctions (``30`` is not ``30.0``) without holding two
large counters in memory.  The digest of the rendered output as printed,
in its row order, is kept separately so that two commits can be compared
on row order as well.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def _canonical_line(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def multiset_digest(rows) -> tuple[int, str]:
    """(row count, digest) of rows as an unordered multiset."""
    lines = sorted(_canonical_line(r) for r in rows)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def parse_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def ordered_digest(text: str) -> str:
    """Digest of rendered output in its row order."""
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Checker:
    """Counts operations and the ones that failed or answered wrongly.

    A query text seen before is checked by its ordered digest against the
    first answer, which was checked against the reference.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: list[dict] = field(default_factory=list)
    ordered: dict[str, str] = field(default_factory=dict)  # query text -> digest

    def record_error(self, qid: str, text: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.mismatches.append({"qid": qid, "query": text, "reason": reason})

    def check(self, qid: str, text: str, rendered: str, expected) -> bool:
        """Check one operation's rendered jsonl; expected is a zero-argument
        callable returning the reference rows, called only when needed."""
        self.attempted += 1
        digest = ordered_digest(rendered)
        known = self.ordered.get(text)
        if known is not None:
            ok = known == digest
            reason = "row order or content changed between runs of one query"
        else:
            got = multiset_digest(parse_jsonl(rendered))
            want = multiset_digest(expected())
            ok = got == want
            reason = f"got {got[0]} rows, expected {want[0]} (multiset differs)"
            if ok:
                self.ordered[text] = digest
        if not ok:
            self.failed += 1
            self.mismatches.append({"qid": qid, "query": text, "reason": reason})
        return ok
