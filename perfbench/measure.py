"""Arithmetic the benchmark reports: percentiles, failures, answer oracles.

Nothing here imports the system under test, so ``selftest.py`` can check
every formula on synthetic inputs.
"""

import math
import random
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: always one of the observed samples.

    Rank ``ceil(pct / 100 * n)`` of the sorted samples (1-based), so p50
    of ``[1, 2, 3, 4]`` is 2 and p100 is the maximum.
    """
    if not samples:
        raise ValueError("nearest_rank needs at least one sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: Sequence[float], pct: float) -> Tuple[int, int]:
    """(samples below, samples above) the nearest-rank ``pct`` percentile.

    Ties with the percentile value are on neither side.
    """
    value = nearest_rank(samples, pct)
    return (sum(1 for sample in samples if sample < value),
            sum(1 for sample in samples if sample > value))


def tail_percentile(samples: Sequence[float], pct: float,
                    min_beyond: int = 10) -> Optional[float]:
    """``nearest_rank(samples, pct)``, or None unless at least
    ``min_beyond`` samples lie on each side of it."""
    if not samples or min(beyond(samples, pct)) < min_beyond:
        return None
    return nearest_rank(samples, pct)


class Samples(NamedTuple):
    """Latency samples of a stream and the wall time they add up to."""

    ask_ms: List[float]
    write_ms: List[float]
    wall_s: float

    @property
    def asks_per_s(self) -> float:
        return len(self.ask_ms) / self.wall_s if self.wall_s else 0.0


def call_ms(calls: Sequence[Tuple[int, int, float, float]],
            scale: Optional[Callable[[float, float], float]] = None
            ) -> List[Tuple[int, int, float]]:
    """``(asks, writes, ms)`` of ``(asks, writes, start_s, end_s)`` calls.

    With ``scale``, each duration is multiplied by ``scale(start, end)``.
    """
    return [(asks, writes, (end - start) * 1e3
             * (scale(start, end) if scale is not None else 1.0))
            for asks, writes, start, end in calls]


def samples(calls: Sequence[Tuple[int, int, float]]) -> Samples:
    """Latency samples of ``(asks, writes, ms)`` calls, of one replay or
    of several taken together.

    Every ask and write of a call is charged the call's time, and the
    wall time is the sum of the calls' times.
    """
    ask_ms: List[float] = []
    write_ms: List[float] = []
    for asks, writes, ms in calls:
        ask_ms.extend([ms] * asks)
        write_ms.extend([ms] * writes)
    if not ask_ms:
        raise ValueError("the calls hold no asks")
    return Samples(ask_ms, write_ms, sum(ms for _, _, ms in calls) / 1e3)


def zipf_counts(n: int, skew: float, total: int) -> List[int]:
    """How often each of ranks 0..n-1 is asked in a stream of ``total``.

    The Zipf(skew) shares of ``total``, rounded by largest remainder so
    they add up to ``total`` exactly.
    """
    if n < 1 or total < 0:
        raise ValueError("zipf needs at least one rank and a total >= 0")
    weights = [1.0 / rank ** skew for rank in range(1, n + 1)]
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_stream(rng: random.Random, n: int, skew: float,
                total: int) -> List[int]:
    """``total`` ranks with exactly the Zipf counts, in seeded order.

    Every seed asks every rank equally often and only the order differs.
    With independent draws, how many asks landed on the few expensive
    tail questions varied enough from seed to seed to double one
    workload's throughput.
    """
    stream = [rank for rank, count in enumerate(zipf_counts(n, skew, total))
              for _ in range(count)]
    rng.shuffle(stream)
    return stream


class Failures:
    """Failed operations counted against operations attempted.

    An ask fails when it was shed, abstained, degraded, or raised; a
    write fails when its detail says ``write failed`` or it raised.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ask(self, answer=None, shed: bool = False,
            raised: bool = False) -> bool:
        """Record one ask; True when it failed."""
        self.attempted += 1
        bad = (raised or shed or answer is None or answer.abstained
               or bool(answer.metadata.get("degraded")))
        self.failed += bad
        return bad

    def write(self, detail: str = "", raised: bool = False) -> bool:
        """Record one write; True when it failed."""
        self.attempted += 1
        bad = raised or detail.startswith("write failed")
        self.failed += bad
        return bad

    def absorb(self, other: "Failures") -> None:
        """Count another tally's operations as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def rate(self) -> float:
        """Failed share of attempted (0 before any attempt)."""
        return self.failed / self.attempted if self.attempted else 0.0


def fingerprint(answer) -> Tuple:
    """Everything an answer shows its user, in a comparable form."""
    return (answer.text, repr(answer.value), answer.confidence,
            answer.grounded, answer.abstained, answer.system,
            tuple(answer.provenance),
            tuple(sorted((k, repr(v)) for k, v in answer.metadata.items())))


class Accuracy:
    """Share of checked answers that matched the workload's oracle.

    A mismatch is kept and lowers the share; the first few are kept
    verbatim so a failing run can say what went wrong.
    """

    def __init__(self):
        self.checked = 0
        self.matched = 0
        self.mismatches: List[str] = []

    def check(self, ok: bool, label: str = "") -> bool:
        self.checked += 1
        self.matched += bool(ok)
        if not ok and len(self.mismatches) < 5:
            self.mismatches.append(label)
        return ok

    def absorb(self, other: "Accuracy") -> None:
        """Count another check's results as this one's."""
        self.checked += other.checked
        self.matched += other.matched
        self.mismatches.extend(other.mismatches[:5 - len(self.mismatches)])

    @property
    def share(self) -> float:
        return self.matched / self.checked if self.checked else 0.0

    @property
    def perfect(self) -> bool:
        return self.checked > 0 and self.matched == self.checked
