"""Quarterly player-escalation staking simulation driven by hit gaps.

One stream plays a fixed combination every draw, escalating the number of
paying players quarter by quarter until the combination hits.  The first
quarters follow a fixed schedule (default 1, 2, 5, 12 players); beyond it
the extension ratio takes over.  Without one (None, the default) the next
count is the smallest that recovers all losses while at least matching the
previous quarter's would-be profit (min-recover); a ratio such as
``extension_ratio=Fraction("2.4")`` is a fixed step by that exact factor
(a float 2.4 * 5 would ceil to 13).

Two accounting modes are first class.  FULL_QUARTER charges every started
quarter in full, which reproduces round-number hand arithmetic exactly;
EXACT_DAY charges only elapsed days and therefore never spends more than
FULL_QUARTER, with equality exactly when the win lands on a quarter's
last day.

All money is integer cents so the accounting identity
``profit == payout - spend`` holds exactly, never approximately.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

__all__ = [
    "AccountingMode",
    "StrategyConfig",
    "CapExceededError",
    "QuarterRecord",
    "StreamLedger",
    "next_player_count",
    "simulate_stream",
    "simulate_streams",
    "required_budget",
    "format_cents",
    "ledger_to_dict",
    "render_ledger",
]


class AccountingMode(Enum):
    FULL_QUARTER = "paper"
    EXACT_DAY = "exact"


class CapExceededError(RuntimeError):
    """No admissible player count exists below the configured cap."""


@dataclass(frozen=True)
class StrategyConfig:
    ticket_price_cents: int = 100
    draws_per_day: int = 2
    payout_per_ticket_cents: int = 50_000
    quarter_days: int = 60
    schedule: tuple[int, ...] = (1, 2, 5, 12)
    extension_ratio: Fraction | None = None
    accounting: AccountingMode = AccountingMode.FULL_QUARTER
    player_cap: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("ticket_price_cents", "draws_per_day", "payout_per_ticket_cents", "quarter_days", "player_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        schedule = tuple(int(p) for p in self.schedule)
        if not schedule:
            raise ValueError("schedule must be nonempty")
        if any(p <= 0 for p in schedule):
            raise ValueError("player counts must be positive")
        if any(b < a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be nondecreasing")
        object.__setattr__(self, "schedule", schedule)
        if self.extension_ratio is not None and self.extension_ratio <= 0:
            raise ValueError("fixed-ratio extension needs a positive ratio")

    @property
    def quarter_cost_per_player_cents(self) -> int:
        """One player's tickets for a full quarter."""
        return self.ticket_price_cents * self.draws_per_day * self.quarter_days


@dataclass(frozen=True)
class QuarterRecord:
    """One quarter of one stream.

    ``payout_cents`` is the payout actually received in the quarter (zero
    unless it is the winning quarter); ``net_cents`` is the net profit a
    win in this quarter yields given the recorded spend and the loss
    carried in.
    """

    quarter: int
    players: int
    spend_cents: int
    payout_cents: int
    net_cents: int
    cumulative_loss_cents: int


@dataclass(frozen=True)
class StreamLedger:
    """A stream's quarters and the day it won (None for an open stream);
    the outcome and the totals are read from them."""

    quarters: tuple[QuarterRecord, ...]
    win_day: int | None

    @property
    def win_quarter(self) -> int | None:
        return None if self.win_day is None else len(self.quarters)

    @property
    def outcome(self) -> str:
        return "open" if self.win_day is None else "win"

    @property
    def total_spend_cents(self) -> int:
        last = self.quarters[-1]
        return last.cumulative_loss_cents + last.spend_cents

    @property
    def total_payout_cents(self) -> int:
        return self.quarters[-1].payout_cents

    @property
    def profit_cents(self) -> int:
        return self.total_payout_cents - self.total_spend_cents

    @property
    def drawdown_cents(self) -> int:
        """Deepest out-of-pocket point: everything spent before the winning
        quarter, or all spend for a stream still open."""
        if self.win_day is None:
            return self.total_spend_cents
        return self.quarters[-1].cumulative_loss_cents


def next_player_count(
    cumulative_loss_cents: int,
    previous_net_cents: int,
    previous_players: int,
    config: StrategyConfig,
) -> int:
    """Player count for the next quarter past the schedule.

    Without an extension ratio, min-recover returns the smallest count
    whose win recovers the losses so far and still nets at least the
    previous quarter's would-be profit; a ratio scales the previous count
    and rounds up.  Counts above the cap raise :class:`CapExceededError`.
    """
    ratio = config.extension_ratio
    if ratio is not None:
        players = max(1, math.ceil(ratio * previous_players))
    else:
        margin = config.payout_per_ticket_cents - config.quarter_cost_per_player_cents
        if margin <= 0:
            raise CapExceededError("a quarter costs at least the payout per player; no count recovers losses")
        required = cumulative_loss_cents + previous_net_cents
        players = max(1, -(-required // margin))
    if players > config.player_cap:
        # str() refuses an int of more than 4,300 digits, so a count that long is named by its size.
        count = players if players < 10**1000 else f"of about 10**{math.log10(players):.0f}"
        raise CapExceededError(f"required player count {count} exceeds the cap {config.player_cap}")
    return int(players)


def simulate_stream(
    win_draw_offset: int | None,
    config: StrategyConfig,
    horizon_days: int | None = None,
) -> StreamLedger:
    """Play one stream until the combination hits or the horizon runs out.

    ``win_draw_offset`` is the 0-based index of the winning draw counted
    from the stream's first draw, or None for a stream that never hits;
    an open stream needs ``horizon_days``, the days it runs.  Both play
    every day through a last day, the winning one or the horizon's.
    FULL_QUARTER accounting charges the last quarter in full; EXACT_DAY
    charges it only through the last day.
    """
    if win_draw_offset is not None:
        if win_draw_offset < 0:
            raise ValueError(f"win_draw_offset must be >= 0, got {win_draw_offset}")
        win_day = last_day = win_draw_offset // config.draws_per_day
    else:
        if horizon_days is None or horizon_days < 1:
            raise ValueError(f"horizon_days must be positive, got {horizon_days}")
        win_day, last_day = None, horizon_days - 1
    quarters = last_day // config.quarter_days + 1

    # Only the last quarter can end mid-way: ``loss`` serves ledger and extension rule alike.
    daily_cost = config.ticket_price_cents * config.draws_per_day
    records = []
    loss = players = net = 0
    for q in range(1, quarters + 1):
        if q <= len(config.schedule):
            players = config.schedule[q - 1]
        else:
            players = next_player_count(loss, net, players, config)
        days = config.quarter_days
        if q == quarters and config.accounting is AccountingMode.EXACT_DAY:
            days = last_day + 1 - (q - 1) * config.quarter_days
        spend = daily_cost * days * players
        prize = config.payout_per_ticket_cents * players
        payout = prize if q == quarters and win_day is not None else 0
        net = prize - spend - loss
        records.append(QuarterRecord(q, players, spend, payout, net, loss))
        loss += spend
    return StreamLedger(tuple(records), win_day)


def simulate_streams(gaps: Sequence[int], config: StrategyConfig) -> tuple[StreamLedger, ...]:
    """One stream's ledger per hit gap; the winning draw is the gap-th draw of its stream.

    A ledger is a pure function of its gap, so each distinct gap is
    simulated once, at its first stream, and its frozen ledger is shared
    by every later stream with that gap.  Errors number the streams from
    1, as the simulate report does.
    """
    by_gap: dict[int, StreamLedger] = {}
    ledgers = []
    for i, gap in enumerate(gaps, start=1):
        g = int(gap)
        if g < 1:
            raise ValueError(f"stream {i}: gap must be a positive draw count, got {gap}")
        if g not in by_gap:
            try:
                by_gap[g] = simulate_stream(g - 1, config)
            except CapExceededError as exc:
                raise CapExceededError(f"stream {i} (gap {g} draws): {exc}") from exc
        ledgers.append(by_gap[g])
    return tuple(ledgers)


def required_budget(max_gap_draws: int, config: StrategyConfig) -> int:
    """Cents needed when the win arrives only at the end of the longest gap.

    Always uses full-quarter accounting, whatever the configured mode.
    """
    if max_gap_draws < 1:
        raise ValueError(f"max_gap_draws must be positive, got {max_gap_draws}")
    full_quarter = replace(config, accounting=AccountingMode.FULL_QUARTER)
    return simulate_stream(max_gap_draws - 1, full_quarter).total_spend_cents


def format_cents(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    magnitude = abs(cents)
    return f"{sign}${magnitude // 100}.{magnitude % 100:02d}"


def ledger_to_dict(ledger: StreamLedger) -> dict:
    return {
        "quarters": [asdict(r) for r in ledger.quarters],
        "outcome": ledger.outcome,
        "win_quarter": ledger.win_quarter,
        "win_day": ledger.win_day,
        "total_spend_cents": ledger.total_spend_cents,
        "total_payout_cents": ledger.total_payout_cents,
        "profit_cents": ledger.profit_cents,
        "drawdown_cents": ledger.drawdown_cents,
    }


def render_ledger(ledger: StreamLedger) -> list[str]:
    """Plain-text table for one stream."""
    lines = ["  quarter  players       spend      payout         net  loss_before"]
    for r in ledger.quarters:
        lines.append(
            f"  {r.quarter:7d}  {r.players:7d}  {format_cents(r.spend_cents):>10}"
            f"  {format_cents(r.payout_cents):>10}  {format_cents(r.net_cents):>10}"
            f"  {format_cents(r.cumulative_loss_cents):>11}"
        )
    if ledger.outcome == "win":
        lines.append(f"  outcome: win on day {ledger.win_day} (quarter {ledger.win_quarter})")
    else:
        lines.append("  outcome: open (no win within the horizon)")
    lines.append(
        f"  totals: spend {format_cents(ledger.total_spend_cents)},"
        f" payout {format_cents(ledger.total_payout_cents)},"
        f" profit {format_cents(ledger.profit_cents)}"
    )
    return lines
