"""Core types and numeric primitives."""
import copy
import math
import pickle
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwklab.core import (
    ExactSum,
    InstanceParams,
    Outcome,
    RngStream,
    RoundColumns,
    RoundRecord,
    RunTrace,
    TerminationReason,
    float_bits,
    normalized_probs_from_log_weights,
    stable_mix64,
)


def log_sum_exp(log_values: Sequence[float]) -> float:
    """log(sum(exp(v))) computed with the max shifted out first.

    Entries may be -inf (treated as absent terms); returns -inf iff all are.
    """
    if len(log_values) == 0:
        raise ValueError("empty collection")
    m = max(log_values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in log_values))


def require_simplex(probs: Iterable[float], tol: float = 1e-9) -> None:
    """Raise unless ``probs`` is a probability vector (nonneg, sums to 1)."""
    probs = list(probs)
    for p in probs:
        if p < 0:
            raise ValueError(f"negative probability {p}")
    s = math.fsum(probs)
    if abs(s - 1.0) > tol:
        raise ValueError(f"probabilities sum to {s}, not 1")


def add(acc: ExactSum, x: float) -> None:
    """Unconditional add: no sum exceeds an infinite limit, so every term is taken."""
    acc.add_if_within(x, math.inf)


def peek_add(acc: ExactSum, x: float) -> float:
    """Value ``acc`` would have after adding ``x``, without committing."""
    trial = copy.copy(acc)
    add(trial, x)
    return trial.value


class TestLogSumExp:
    def test_two_zeros_is_ln_two(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_singleton_is_identity(self):
        for x in [-123.456, 0.0, 1e-300, 17.0, 700.0]:
            assert log_sum_exp([x]) == pytest.approx(x, abs=1e-12)

    def test_large_values_do_not_overflow(self):
        # Oracle: shift by the max by hand, where exp() is exactly safe.
        values = [1000.0, 1000.0]
        shifted = 1000.0 + math.log(sum(math.exp(v - 1000.0) for v in values))
        got = log_sum_exp(values)
        assert math.isfinite(got)
        assert got == pytest.approx(shifted, abs=1e-12)
        assert got == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            log_sum_exp([])

    def test_all_negative_infinity(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_mixed_negative_infinity(self):
        assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_oracle_on_safe_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            values = list(rng.uniform(-30, 30, size=rng.integers(1, 8)))
            naive = math.log(sum(math.exp(v) for v in values))
            assert log_sum_exp(values) == pytest.approx(naive, rel=1e-12)


class TestNormalizedProbs:
    def test_equal_weights_are_uniform(self):
        assert normalized_probs_from_log_weights([0.0, 0.0, 0.0]) == pytest.approx(
            [1 / 3] * 3
        )

    def test_three_to_one_ratio(self):
        got = normalized_probs_from_log_weights([math.log(3.0), 0.0])
        assert got == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_dominated_entry_stays_nonnegative(self):
        lo, hi = normalized_probs_from_log_weights([-800.0, 0.0])
        assert lo >= 0.0
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_entries_rejected(self):
        for bad in [math.inf, -math.inf, math.nan]:
            with pytest.raises(ValueError, match="invalid weight"):
                normalized_probs_from_log_weights([0.0, bad])

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            normalized_probs_from_log_weights([])

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = list(rng.uniform(-50, 50, size=rng.integers(1, 7)))
            shift = float(rng.uniform(-1e3, 1e3))
            base = normalized_probs_from_log_weights(w)
            moved = normalized_probs_from_log_weights([v + shift for v in w])
            assert moved == pytest.approx(base, abs=1e-12)

    def test_sums_to_one_tightly(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = list(rng.uniform(-700, 700, size=rng.integers(1, 9)))
            probs = normalized_probs_from_log_weights(w)
            assert abs(math.fsum(probs) - 1.0) <= 1e-12
            assert all(p >= 0.0 for p in probs)


class TestSimplexCheck:
    def test_accepts_valid(self):
        require_simplex([0.2, 0.3, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            require_simplex([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            require_simplex([0.5, 0.5 + 1e-6])


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(123, 45)
        b = RngStream(123, 45)
        assert [a.uniform() for _ in range(2000)] == [b.uniform() for _ in range(2000)]

    def test_different_stream_ids_differ(self):
        a = RngStream(123, 1)
        b = RngStream(123, 2)
        assert [a.uniform() for _ in range(16)] != [b.uniform() for _ in range(16)]

    def test_bulk_and_scalar_draws_share_one_sequence(self):
        a = RngStream(9, 0)
        b = RngStream(9, 0)
        seq_a = [a.uniform() for _ in range(1500)]
        seq_b = list(b.uniforms(700)) + [b.uniform() for _ in range(100)] + list(
            b.uniforms(700)
        )
        assert seq_a == pytest.approx(seq_b, abs=0.0)

    def test_index_matches_manual_inverse_cdf(self):
        probs = [0.25, 0.5, 0.25]
        a = RngStream(31, 0)
        b = RngStream(31, 0)
        for _ in range(500):
            u = b.uniform()
            expect = 0 if u < 0.25 else (1 if u < 0.75 else 2)
            assert a.index(probs) == expect

    def test_integer_within_bounds(self):
        rng = RngStream(5)
        draws = [rng.integer(7) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) <= 6
        assert len(set(draws)) == 7


class TestExactSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(0.01, 1.0, size=500))
        acc = ExactSum()
        for v in values:
            add(acc, v)
        assert acc.value == math.fsum(values)

    def test_add_if_within_boundary(self):
        acc = ExactSum()
        assert acc.add_if_within(0.25, 1.0)
        assert acc.add_if_within(0.75, 1.0)  # lands exactly on the limit
        assert acc.value == 1.0
        assert not acc.add_if_within(1e-9, 1.0)
        assert acc.value == 1.0

    @pytest.mark.parametrize("x, limit", [(math.nan, 1.0), (0.25, math.nan)])
    def test_nan_term_or_limit_refused(self, x, limit):
        acc = ExactSum()
        assert acc.add_if_within(0.5, 1.0)
        assert not acc.add_if_within(x, limit)
        assert acc.value == 0.5
        # the sum is intact, so the limit still binds the next term
        assert not acc.add_if_within(5.0, 1.0)
        assert acc.add_if_within(0.5, 1.0)
        assert acc.value == 1.0

    def test_no_drift_on_repeated_tenths(self):
        # 0.1 is inexact in binary; naive accumulation admits a 11th pull.
        acc = ExactSum()
        paid = 0
        while acc.add_if_within(0.1, 1.0):
            paid += 1
        assert paid == 10

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_cached_value_is_fsum_of_accepted_terms(self, ops):
        acc = ExactSum()
        accepted = []
        for bounded, x, limit in ops:
            if not bounded:
                add(acc, x)
                accepted.append(x)
            elif acc.add_if_within(x, limit):
                accepted.append(x)
            assert acc.value == math.fsum(accepted)

    def test_peek_does_not_commit(self):
        acc = ExactSum()
        add(acc, 0.5)
        assert peek_add(acc, 0.25) == 0.75
        assert acc.value == 0.5


class TestInstanceParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceParams(n_arms=0, budget=1.0, cost_min=0.5)
        with pytest.raises(ValueError):
            InstanceParams(n_arms=2, budget=0.0, cost_min=0.5)
        with pytest.raises(ValueError):
            InstanceParams(n_arms=2, budget=1.0, cost_min=0.0)
        with pytest.raises(ValueError):
            InstanceParams(n_arms=2, budget=1.0, cost_min=0.8, cost_max=0.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        # an infinite budget would overflow the horizon cap
        with pytest.raises(ValueError, match="finite"):
            InstanceParams(n_arms=2, budget=bad, cost_min=0.5)
        with pytest.raises(ValueError):
            InstanceParams(n_arms=2, budget=1.0, cost_min=0.5, cost_max=bad)

    def test_horizon_cap(self):
        p = InstanceParams(n_arms=2, budget=10.0, cost_min=0.25)
        assert p.horizon_cap() == 41
        q = InstanceParams(n_arms=2, budget=10.5, cost_min=1.0)
        assert q.horizon_cap() == 12


class TestRunTrace:
    @staticmethod
    def appended(rows):
        """Columns holding ``rows`` of (t, arm, probs, reward, cost, budget_after)."""
        cols = RoundColumns()
        for row in rows:
            cols.append(*row)
        return cols

    def test_totals_and_counts(self):
        rows = [
            (1, 0, (1.0, 0.0), 0.5, 0.25, 0.75),
            (2, 1, (0.5, 0.5), 0.0, 0.5, 0.25),
            (3, 0, (1.0, 0.0), 1.0, 0.25, 0.0),
        ]
        trace = RunTrace(1.0, self.appended(rows), TerminationReason.BUDGET_EXHAUSTED)
        assert trace.tau == 3
        assert trace.total_reward == 1.5
        assert trace.total_cost == 1.0
        assert trace.pull_counts(2) == [2, 1]
        assert trace.efficiency_total() == pytest.approx(0.5 / 0.25 + 0.0 + 4.0)

    ROWS = (
        (1, 1, (0.2, 0.7, 0.1), 0.75, 0.5, 1.5),
        (2, 0, (0.3, 0.6, 0.1), 0.0, 0.25, 1.25),
    )
    # ROWS as the records RunTrace.build takes.
    ROUNDS = tuple(RoundRecord(t, a, p, Outcome(r, c), left) for t, a, p, r, c, left in ROWS)

    # ROWS as columns, the probability vectors stored flat.
    COLUMNS = {
        "t": [1, 2],
        "arm": [1, 0],
        "reward": [0.75, 0.0],
        "cost": [0.5, 0.25],
        "budget_after": [1.5, 1.25],
        "probs": [0.2, 0.7, 0.1, 0.3, 0.6, 0.1],
    }

    @classmethod
    def columns_of(cls, trace):
        return {f: list(getattr(trace.columns, f)) for f in cls.COLUMNS}

    def test_rounds_are_rebuilt_equal(self):
        aborted = (2, Outcome(1.0, 2.0))
        trace = RunTrace.build(2.0, self.ROUNDS, TerminationReason.BUDGET_EXHAUSTED, aborted)
        assert self.columns_of(trace) == self.COLUMNS
        assert trace.columns.width == 3
        empty = RunTrace.build(1.0, [], TerminationReason.HORIZON_CAP)
        assert len(empty.columns) == 0 and empty.columns.width == 0

    def test_unequal_probability_widths_rejected(self):
        rounds = [self.ROUNDS[0], RoundRecord(2, 0, (1.0, 0.0), Outcome(0.0, 0.25), 1.25)]
        with pytest.raises(ValueError, match="equal-length"):
            RunTrace.build(2.0, rounds, TerminationReason.BUDGET_EXHAUSTED)

    def test_pickle_round_trip(self):
        aborted = (2, Outcome(1.0, 2.0))
        trace = RunTrace(2.0, self.appended(self.ROWS), TerminationReason.BUDGET_EXHAUSTED, aborted)
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace
        assert self.columns_of(back) == self.COLUMNS
        assert (back.tau, back.total_reward, back.total_cost) == (2, 0.75, 0.75)


class TestStableHash:
    def test_deterministic_and_distinct(self):
        a = stable_mix64(float_bits(1000.0), 3, 0)
        assert a == stable_mix64(float_bits(1000.0), 3, 0)
        assert a != stable_mix64(float_bits(1000.0), 3, 1)
        assert a != stable_mix64(float_bits(1000.0), 4, 0)
        assert a != stable_mix64(float_bits(4000.0), 3, 0)

    def test_frozen_reference_values(self):
        # Seed derivation must never change silently: recorded experiments
        # depend on these exact values.
        assert stable_mix64(1, 2, 3) == 12174095428247697372
        assert stable_mix64(float_bits(1000.0), 0, 0) == 5787731678483317197
