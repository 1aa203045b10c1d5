"""Split concatenated domain labels into dictionary words.

"cheapnikeshoes" -> ["cheap", "nike", "shoes"].  A unigram dynamic program
picks the split with minimal total cost, where a known word costs
log((rank + 1) * log(V)) (Zipf: cost grows with frequency rank) and a run of
unknown characters costs a large flat penalty plus a per-character charge, so
unknown text is absorbed into as few residue chunks as possible while known
words are still carved out of it.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from ..datalists import content_lines, data_text

_UNKNOWN_BASE = 100.0
_UNKNOWN_PER_CHAR = 20.0

_LABEL_RE = re.compile(r"[^a-z0-9]+")


@lru_cache(maxsize=1)
def default_word_costs() -> dict[str, float]:
    """Word costs of the shipped "word count" frequency table.

    Ranks come from sorting by count descending (alphabetical on ties), so the
    costs are independent of the file's line order.
    """
    counts: dict[str, int] = {}
    for line in content_lines(data_text("wordfreq.txt")):
        word, _, count = line.partition(" ")
        counts[word] = int(count) if count.strip() else 1
    return costs_from_counts(counts)


@lru_cache(maxsize=1)
def _default_longest_word() -> int:
    return max(map(len, default_word_costs()), default=0)


def costs_from_counts(counts: dict[str, int]) -> dict[str, float]:
    vocab = len(counts)
    if vocab == 0:
        return {}
    log_v = math.log(max(vocab, 2))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {word: math.log((rank + 1) * log_v) for rank, (word, _) in enumerate(ordered)}


def normalize_label(label: str) -> str:
    """Lowercase and strip everything outside a-z0-9 (hyphens, dots, ...)."""
    return _LABEL_RE.sub("", label.lower())


def _chunk_cost(chunk: str, costs: dict[str, float]) -> float:
    known = costs.get(chunk)
    if known is not None:
        return known
    return _UNKNOWN_BASE + _UNKNOWN_PER_CHAR * len(chunk)


def segment_label(label: str, costs: dict[str, float] | None = None) -> list[str]:
    """Return the minimal-cost split of a normalized label.

    Ties break toward fewer tokens, then the lexicographically smallest token
    tuple, so the result is fully deterministic.
    """
    if costs is None:
        costs, longest = default_word_costs(), _default_longest_word()
    else:
        longest = max(map(len, costs), default=0)
    label = normalize_label(label)
    n = len(label)
    if n == 0:
        return []
    # cost[i], count[i] and tokens[i] describe the best split of label[:i];
    # a candidate's token tuple is built only to break a tie in the other two.
    # The inner loop is _chunk_cost inlined, and a chunk longer than every
    # word is unknown without a slice or a lookup.
    cost: list[float] = [0.0]
    count: list[int] = [0]
    tokens: list[tuple[str, ...]] = [()]
    for i in range(1, n + 1):
        best, best_cost = 0, cost[0] + _chunk_cost(label[:i], costs)
        for j in range(1, i):
            chunk_cost = costs.get(label[j:i]) if i - j <= longest else None
            if chunk_cost is None:
                chunk_cost = _UNKNOWN_BASE + _UNKNOWN_PER_CHAR * (i - j)
            c = cost[j] + chunk_cost
            if c < best_cost or c == best_cost and (
                    (count[j], tokens[j] + (label[j:i],))
                    < (count[best], tokens[best] + (label[best:i],))):
                best, best_cost = j, c
        cost.append(best_cost)
        count.append(count[best] + 1)
        tokens.append(tokens[best] + (label[best:i],))
    return list(tokens[n])


def count_subwords(label: str) -> int:
    return len(segment_label(label))
