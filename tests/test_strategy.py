"""Staking simulator tests: the quarterly escalation arithmetic in exact
cents, extension rules, accounting modes, and the ledger identities."""

import dataclasses
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdmlotto import strategy
from cdmlotto.strategy import (
    AccountingMode,
    CapExceededError,
    QuarterRecord,
    StrategyConfig,
    ledger_to_dict,
    next_player_count,
    render_ledger,
    required_budget,
    simulate_stream,
    simulate_streams,
)

DEFAULTS = StrategyConfig()
REFERENCE_GAPS = (44, 615, 698, 12, 546, 124, 1410, 236, 600)


def quarter_net(quarter, config):
    """The net a first win in the 1-based ``quarter`` yields, under
    full-quarter accounting: the winning row of a stream won on the
    quarter's first draw."""
    first_draw = (quarter - 1) * config.quarter_days * config.draws_per_day
    full_quarter = dataclasses.replace(config, accounting=AccountingMode.FULL_QUARTER)
    return simulate_stream(first_draw, full_quarter).quarters[-1].net_cents


class TestQuarterNet:
    @pytest.mark.parametrize("quarter,expected_dollars", [
        (1, 380), (2, 640), (3, 1540), (4, 3600),
    ])
    def test_scheduled_quarters(self, quarter, expected_dollars):
        assert quarter_net(quarter, DEFAULTS) == expected_dollars * 100


class TestNextPlayerCount:
    def test_min_recover_solves_the_inequality(self):
        # 500p - 120p - 960 >= 1540 forces p >= 6.58, so 7 players.
        assert next_player_count(96_000, 154_000, 12, DEFAULTS) == 7

    def test_first_quarter_needs_one_player(self):
        assert next_player_count(0, 0, 0, DEFAULTS) == 1

    def test_fixed_ratio_rounds_up_exactly(self):
        config = StrategyConfig(extension_ratio=Fraction("2.4"))
        assert next_player_count(0, 0, 5, config) == 12

    def test_fixed_ratio_with_fractional_step(self):
        config = StrategyConfig(extension_ratio=Fraction("1.5"))
        assert next_player_count(0, 0, 5, config) == 8

    def test_unwinnable_margin_exceeds_cap(self):
        # A quarter costs $120 per player; a $100 payout can never recover.
        config = StrategyConfig(payout_per_ticket_cents=10_000)
        with pytest.raises(CapExceededError):
            next_player_count(1, 0, 1, config)

    def test_cap_enforced(self):
        config = StrategyConfig(player_cap=5)
        with pytest.raises(CapExceededError):
            next_player_count(10_000_000, 0, 5, config)

    def test_a_count_too_long_to_print_is_named_by_its_size(self):
        # 12 * 10**5000 players has more digits than str() converts, so the
        # message gives its size; the full count raised Python's ValueError.
        config = StrategyConfig(extension_ratio=Fraction(10**5000))
        message = "required player count of about 10\\*\\*5001 exceeds the cap 1000000"
        with pytest.raises(CapExceededError, match=message):
            simulate_stream(2000, config)


class TestSimulateStream:
    def test_first_quarter_win(self):
        ledger = simulate_stream(118, DEFAULTS)  # day 59, still quarter 1
        assert ledger.win_quarter == 1
        assert ledger.profit_cents == 38_000

    def test_fourth_quarter_win_totals(self):
        ledger = simulate_stream(479, DEFAULTS)  # day 239, quarter 4
        assert ledger.total_spend_cents == 240_000
        assert ledger.total_payout_cents == 600_000
        assert ledger.profit_cents == 360_000

    def test_open_stream_spends_the_full_schedule(self):
        ledger = simulate_stream(None, DEFAULTS, horizon_days=240)
        assert ledger.outcome == "open"
        assert ledger.total_spend_cents == 240_000
        assert ledger.total_payout_cents == 0
        assert ledger.profit_cents == -240_000

    def test_open_stream_needs_a_horizon(self):
        with pytest.raises(ValueError, match="^horizon_days must be positive, got None$"):
            simulate_stream(None, DEFAULTS)

    def test_scheduled_quarter_records(self):
        """(players, spend, win payout, net) per quarter, exact in cents."""
        ledger = simulate_stream(479, DEFAULTS)
        rows = [
            (r.players, r.spend_cents, DEFAULTS.payout_per_ticket_cents * r.players, r.net_cents)
            for r in ledger.quarters
        ]
        assert rows == [
            (1, 12_000, 50_000, 38_000),
            (2, 24_000, 100_000, 64_000),
            (5, 60_000, 250_000, 154_000),
            (12, 144_000, 600_000, 360_000),
        ]
        assert [r.cumulative_loss_cents for r in ledger.quarters] == [0, 12_000, 36_000, 96_000]

    def test_only_winning_quarter_collects_payout(self):
        ledger = simulate_stream(479, DEFAULTS)
        assert [r.payout_cents for r in ledger.quarters] == [0, 0, 0, 600_000]

    def test_extension_beyond_schedule(self):
        ledger = simulate_stream(1409, DEFAULTS)  # 1410-draw gap, day 704
        assert ledger.win_quarter == 12
        assert len(ledger.quarters) == 12
        assert [(r.players, r.spend_cents, r.net_cents) for r in ledger.quarters[:4]] == [
            (1, 12_000, 38_000), (2, 24_000, 64_000), (5, 60_000, 154_000), (12, 144_000, 360_000),
        ]
        # Min-recover keeps every later quarter's would-be net at least the
        # previous one's.
        nets = [r.net_cents for r in ledger.quarters]
        assert all(b >= a for a, b in zip(nets[3:], nets[4:]))
        assert ledger.drawdown_cents == ledger.quarters[-1].cumulative_loss_cents

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            simulate_stream(-1, DEFAULTS)

    def test_exact_day_charges_elapsed_days_only(self):
        exact = StrategyConfig(accounting=AccountingMode.EXACT_DAY)
        ledger = simulate_stream(44, exact)  # day 22 of quarter 1
        assert ledger.total_spend_cents == 23 * 2 * 100
        assert ledger.profit_cents == 50_000 - 4_600

    def test_exact_day_equals_full_quarter_on_the_last_day(self):
        exact = StrategyConfig(accounting=AccountingMode.EXACT_DAY)
        last_day_offset = 60 * 2 * 2 - 1  # final draw of quarter 2
        assert (
            simulate_stream(last_day_offset, exact).total_spend_cents
            == simulate_stream(last_day_offset, DEFAULTS).total_spend_cents
        )

    @given(st.integers(0, 3000))
    def test_exact_day_never_spends_more(self, offset):
        exact = StrategyConfig(accounting=AccountingMode.EXACT_DAY)
        spend_exact = simulate_stream(offset, exact).total_spend_cents
        spend_full = simulate_stream(offset, DEFAULTS).total_spend_cents
        assert spend_exact <= spend_full
        day = offset // DEFAULTS.draws_per_day
        if (day + 1) % DEFAULTS.quarter_days == 0:
            assert spend_exact == spend_full
        else:
            assert spend_exact < spend_full

    @given(st.integers(0, 5000))
    def test_accounting_identity(self, offset):
        for mode in AccountingMode:
            ledger = simulate_stream(offset, StrategyConfig(accounting=mode))
            assert ledger.profit_cents == ledger.total_payout_cents - ledger.total_spend_cents
            assert ledger.total_spend_cents == sum(r.spend_cents for r in ledger.quarters)
            assert ledger.total_payout_cents == sum(r.payout_cents for r in ledger.quarters)


class TestSimulateStreams:
    def test_reference_gap_sequence(self):
        streams = simulate_streams(REFERENCE_GAPS, DEFAULTS)
        assert len(streams) == 9
        first = streams[0]  # gap 44 -> day 21 -> quarter 1
        assert first.win_quarter == 1 and first.profit_cents == 38_000
        longest = streams[6]  # gap 1410
        assert max(ledger.drawdown_cents for ledger in streams) == longest.drawdown_cents

    def test_empty_gaps_empty_aggregate(self):
        assert simulate_streams([], DEFAULTS) == ()

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError, match=r"^stream 2: gap must be a positive draw count, got 0$"):
            simulate_streams([44, 0], DEFAULTS)

    def test_cap_error_names_the_stream(self):
        # Streams count from 1, as the simulate report numbers them.
        config = StrategyConfig(player_cap=10)
        with pytest.raises(CapExceededError, match=r"^stream 2 \(gap 100000 draws\)"):
            simulate_streams([44, 100_000], config)
        # A repeated gap is simulated once, at the first stream that has it.
        with pytest.raises(CapExceededError, match=r"^stream 3 \(gap 100000 draws\)"):
            simulate_streams([44, 44, 100_000, 100_000], config)

    def test_each_distinct_gap_is_simulated_once(self, monkeypatch):
        offsets = []

        def counted(offset, config, horizon_days=None):
            offsets.append(offset)
            return simulate_stream(offset, config, horizon_days)

        gaps = [44, 615, 44, 698, 615, 44]
        monkeypatch.setattr(strategy, "simulate_stream", counted)
        streams = simulate_streams(gaps, DEFAULTS)
        assert offsets == [43, 614, 697]
        assert streams[0] is streams[2] is streams[5]
        assert streams == tuple(simulate_stream(g - 1, DEFAULTS) for g in gaps)


def two_pass_quarter_rows(config, quarters):
    """(quarter, players, full spend, net if win, loss before) per quarter,
    every quarter charged in full: the first pass of the two-pass ledger."""
    rows = []
    loss = previous_players = previous_net = 0
    for q in range(1, quarters + 1):
        if q <= len(config.schedule):
            players = config.schedule[q - 1]
        else:
            players = next_player_count(loss, previous_net, previous_players, config)
        spend = config.quarter_cost_per_player_cents * players
        net = config.payout_per_ticket_cents * players - spend - loss
        rows.append((q, players, spend, net, loss))
        previous_players, previous_net = players, net
        loss += spend
    return rows


def two_pass_stream(win_draw_offset, config, horizon_days=None):
    """The ledger document as two passes build it: full-quarter rows, then
    the winning or final quarter prorated under day-exact accounting.  Every
    total is summed here from the rows."""
    if win_draw_offset is not None:
        if win_draw_offset < 0:
            raise ValueError(f"win_draw_offset must be >= 0, got {win_draw_offset}")
        win_day = win_draw_offset // config.draws_per_day
        win_quarter = quarters = win_day // config.quarter_days + 1
    else:
        if horizon_days is None or horizon_days < 1:
            raise ValueError(f"horizon_days must be positive, got {horizon_days}")
        win_day = win_quarter = None
        quarters = -(-horizon_days // config.quarter_days)
    daily_cost = config.ticket_price_cents * config.draws_per_day
    records = []
    for q, players, spend, _, loss in two_pass_quarter_rows(config, quarters):
        if config.accounting is AccountingMode.EXACT_DAY:
            if win_quarter is not None and q == win_quarter:
                spend = daily_cost * (win_day - (q - 1) * config.quarter_days + 1) * players
            elif win_quarter is None and q == quarters:
                spend = daily_cost * (horizon_days - (q - 1) * config.quarter_days) * players
        payout = config.payout_per_ticket_cents * players if q == win_quarter else 0
        net = config.payout_per_ticket_cents * players - spend - loss
        records.append(QuarterRecord(q, players, spend, payout, net, loss))
    total_spend = sum(r.spend_cents for r in records)
    total_payout = sum(r.payout_cents for r in records)
    return {
        "quarters": [dataclasses.asdict(r) for r in records],
        "outcome": "win" if win_quarter is not None else "open",
        "win_quarter": win_quarter,
        "win_day": win_day,
        "total_spend_cents": total_spend,
        "total_payout_cents": total_payout,
        "profit_cents": total_payout - total_spend,
        "drawdown_cents": total_spend - (records[-1].spend_cents if win_quarter is not None else 0),
    }


def stream_document(win_draw_offset, config, horizon_days=None):
    return ledger_to_dict(simulate_stream(win_draw_offset, config, horizon_days))


def outcome(fn, *args, **kwargs):
    """The call's value, or its error's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)


class TestStreamMatchesTwoPassOracle:
    """The one-loop ledger against the two-pass one it replaced, across
    extension rules, quarter lengths, schedules, payouts, prices and caps,
    for wins, open horizons and the net of a first win in each quarter."""

    @pytest.mark.parametrize("accounting", list(AccountingMode))
    @pytest.mark.parametrize("extension", ["min-recover", "1", "2.4", "0.5"])
    def test_ledgers_errors_and_quarter_nets(self, accounting, extension):
        ratio = None if extension == "min-recover" else Fraction(extension)
        grid = itertools.product([1, 7, 60], [(1, 2, 5, 12), (3,), (1, 1, 2)], [50_000, 12_000, 1_000],
                                 [100, 250], [10, 1_000_000])
        for quarter_days, schedule, payout, price, cap in grid:
            config = StrategyConfig(ticket_price_cents=price, payout_per_ticket_cents=payout,
                                    quarter_days=quarter_days, schedule=schedule, extension_ratio=ratio,
                                    accounting=accounting, player_cap=cap)
            for offset in (0, 1, 13, 119, 120, 239, 480):
                assert outcome(stream_document, offset, config) == outcome(two_pass_stream, offset, config)
            for horizon in (1, 6, 59, 60, 61, 241):
                assert (outcome(stream_document, None, config, horizon_days=horizon)
                        == outcome(two_pass_stream, None, config, horizon_days=horizon))
            for quarter in range(1, 9):
                expected = outcome(lambda: two_pass_quarter_rows(config, quarter)[-1][3])
                assert outcome(quarter_net, quarter, config) == expected


class TestRequiredBudget:
    def test_four_quarter_gap(self):
        assert required_budget(480, DEFAULTS) == 240_000

    def test_single_quarter_gap(self):
        assert required_budget(120, DEFAULTS) == 12_000

    def test_longest_reference_gap_is_reported_not_asserted(self):
        budget = required_budget(1410, DEFAULTS)
        assert budget == simulate_stream(1409, DEFAULTS).total_spend_cents
        assert budget > 240_000

    def test_uses_full_quarters_even_in_exact_mode(self):
        exact = StrategyConfig(accounting=AccountingMode.EXACT_DAY)
        assert required_budget(130, exact) == required_budget(130, DEFAULTS)

    @given(st.integers(1, 2000), st.integers(0, 500))
    def test_nondecreasing_in_the_gap(self, gap, extra):
        assert required_budget(gap + extra, DEFAULTS) >= required_budget(gap, DEFAULTS)


class TestConfigValidation:
    def test_schedule_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            StrategyConfig(schedule=(2, 1))

    def test_schedule_must_be_nonempty(self):
        with pytest.raises(ValueError):
            StrategyConfig(schedule=())

    def test_positive_money_fields(self):
        with pytest.raises(ValueError):
            StrategyConfig(ticket_price_cents=0)
        with pytest.raises(ValueError):
            StrategyConfig(quarter_days=-1)
        # A fraction of a cent would break the integer-cent ledger (a spend of 180.0 for 1.5).
        with pytest.raises(ValueError, match="^ticket_price_cents must be an integer, got float$"):
            StrategyConfig(ticket_price_cents=1.5)

    @pytest.mark.parametrize("schedule", [(1.5, 2.7), "12"], ids=repr)
    def test_schedule_counts_are_not_truncated_or_read_from_text(self, schedule):
        # int() once read both as (1, 2).
        with pytest.raises(ValueError, match="^schedule must be an integer, got (float|str)$"):
            StrategyConfig(schedule=schedule)

    def test_ratio_rule_needs_a_ratio(self):
        # None is min-recover, and a ratio must be a finite positive real.
        assert StrategyConfig().extension_ratio is None
        assert StrategyConfig(extension_ratio=Fraction("2.4")).extension_ratio == Fraction(12, 5)
        assert StrategyConfig(extension_ratio=2.4).extension_ratio == 2.4
        for ratio in (Fraction(0), Fraction("-2.4"), Fraction(-1), math.nan, math.inf):
            with pytest.raises(ValueError, match="positive ratio"):
                StrategyConfig(extension_ratio=ratio)
        for ratio, kind in (("2", "str"), (True, "bool"), (Decimal(2), "Decimal")):
            with pytest.raises(ValueError, match=f"^extension_ratio must be a real number, got {kind}$"):
                StrategyConfig(extension_ratio=ratio)

    def test_accounting_must_be_a_mode(self):
        # Any value but EXACT_DAY runs paper accounting, so the string "exact" would spend 12,000 cents here.
        assert simulate_stream(10, StrategyConfig(accounting=AccountingMode.EXACT_DAY)).total_spend_cents == 1_200
        for accounting, kind in (("exact", "str"), (None, "NoneType")):
            with pytest.raises(ValueError, match=f"^accounting must be an AccountingMode, got {kind}$"):
                StrategyConfig(accounting=accounting)


class TestLedgerRendering:
    def test_dict_field_names(self):
        ledger = simulate_stream(479, DEFAULTS)
        document = ledger_to_dict(ledger)
        assert set(document["quarters"][0]) == {
            "quarter", "players", "spend_cents", "payout_cents", "net_cents", "cumulative_loss_cents",
        }
        assert document["outcome"] == "win"
        assert document["profit_cents"] == 360_000

    def test_text_table_carries_the_totals(self):
        lines = render_ledger(simulate_stream(479, DEFAULTS))
        assert lines[0] == "  quarter  players       spend      payout         net  loss_before"
        text = "\n".join(lines)
        assert "$2400.00" in text and "$6000.00" in text and "$3600.00" in text
