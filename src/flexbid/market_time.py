"""Market and system timescale bookkeeping.

All durations are integer seconds.  The market chain orders six nested
timescales, longest first:

    T_H   tendering horizon
    T_RES reserve tendering period
    T_DA  day-ahead product length
    T_ID  intra-day product length
    T_S   activation settlement interval (averaged activation signal)
    T_C   activation broadcast interval (raw control signal)

Every longer duration in the chain must be an integer multiple of every
shorter one.  Two extra durations ride along: the ramp window ``T_RP``
(0 <= T_RP <= T_ID, multiple of T_S) over which the power reference moves
between consecutive intra-day setpoints, and the intra-day lead time
``T_ID_lead`` (multiple of T_ID) between gate closure and delivery.
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

#: chain fields ordered longest to shortest
_CHAIN = ("T_H", "T_RES", "T_DA", "T_ID", "T_S", "T_C")


@dataclass(frozen=True)
class Timescales:
    """Integer-second market timescales for one tendering horizon.

    ``t = 0`` is the start of a delivery day.  ``DA_gate_offset`` is the
    time of day (seconds after midnight) at which the day-ahead auction for
    the next delivery day closes.
    """

    T_H: int
    T_RES: int
    T_DA: int
    T_ID: int
    T_S: int
    T_C: int
    T_RP: int = 0
    T_ID_lead: int = 0
    DA_gate_offset: int = 11 * SECONDS_PER_HOUR

    def chain(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in _CHAIN)


def validate_timescales(ts: Timescales) -> list[str]:
    """Return a list of violated relations (empty when ``ts`` is admissible).

    Checks positivity, the chain ordering with pairwise integer
    divisibility, and the side conditions on ``T_RP`` and ``T_ID_lead``.
    """
    problems: list[str] = []
    for name in _CHAIN:
        value = getattr(ts, name)
        if not isinstance(value, int):
            problems.append(f"{name} must be an integer number of seconds, got {value!r}")
        elif value <= 0:
            problems.append(f"{name} must be positive, got {value}")
    if problems:
        return problems

    values = ts.chain()
    for i, longer in enumerate(_CHAIN):
        for j in range(i + 1, len(_CHAIN)):
            shorter = _CHAIN[j]
            a, b = values[i], values[j]
            if a < b:
                problems.append(f"{longer} ({a} s) must be >= {shorter} ({b} s)")
            elif a % b != 0:
                problems.append(f"{longer} ({a} s) is not an integer multiple of {shorter} ({b} s)")

    if not isinstance(ts.T_RP, int) or ts.T_RP < 0:
        problems.append(f"T_RP must be a nonnegative integer, got {ts.T_RP!r}")
    else:
        if ts.T_RP > ts.T_ID:
            problems.append(f"T_RP ({ts.T_RP} s) must not exceed T_ID ({ts.T_ID} s)")
        if ts.T_RP % ts.T_S != 0:
            problems.append(f"T_RP ({ts.T_RP} s) is not an integer multiple of T_S ({ts.T_S} s)")

    if not isinstance(ts.T_ID_lead, int) or ts.T_ID_lead < 0:
        problems.append(f"T_ID_lead must be a nonnegative integer, got {ts.T_ID_lead!r}")
    elif ts.T_ID_lead % ts.T_ID != 0:
        problems.append(
            f"T_ID_lead ({ts.T_ID_lead} s) is not an integer multiple of T_ID ({ts.T_ID} s)"
        )

    if not isinstance(ts.DA_gate_offset, int) or not 0 <= ts.DA_gate_offset < SECONDS_PER_DAY:
        problems.append(
            f"DA_gate_offset must be an integer in [0, 86400), got {ts.DA_gate_offset!r}"
        )
    return problems


@dataclass(frozen=True)
class IndexCounts:
    """Number of complete intervals of each scale inside the horizon."""

    N_RES: int
    N_DA: int
    N_ID: int
    N_S: int
    N_C: int


def derive_counts(ts: Timescales) -> IndexCounts:
    """Compute interval counts for an admissible timescale set.

    Raises ``ValueError`` listing every violated relation otherwise.
    """
    problems = validate_timescales(ts)
    if problems:
        raise ValueError("invalid timescales:\n  " + "\n  ".join(problems))
    return IndexCounts(
        N_RES=ts.T_H // ts.T_RES,
        N_DA=ts.T_H // ts.T_DA,
        N_ID=ts.T_H // ts.T_ID,
        N_S=ts.T_H // ts.T_S,
        N_C=ts.T_H // ts.T_C,
    )

