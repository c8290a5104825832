"""Message buffers and the paper's adaptive sizing rule (section 5.3).

A buffer keeps the policy state (``beta``, ``tau``, the distinct-update
count, the pace window); the updates live in the worker's send side and
reach the buffer as counts, the way the async engine feeds it: the send
side's ``fill`` folds a chunk and tells the buffer what it brought.
"""

from collections import defaultdict
from types import SimpleNamespace

from repro.aggregates import MIN, SUM
from repro.distributed import (
    AdaptiveBuffer,
    AsyncEngine,
    BufferPolicy,
    ClusterConfig,
    FixedBuffer,
)
from repro.graphs import chain
from repro.programs import get_program
from repro.runtime import SendSide

#: every key is owned by worker 1, the buffers' target
TARGET = 1


def _side(aggregate):
    plan = SimpleNamespace(aggregate=aggregate)
    return SendSide(plan, defaultdict(lambda: TARGET), parts=2)


def _fixed(beta, tau, aggregate=SUM):
    return FixedBuffer(beta, tau, _side(aggregate), TARGET)


def _adaptive(policy, on_adapt=None):
    return AdaptiveBuffer(policy, _side(SUM), TARGET, on_adapt=on_adapt)


def feed(buffer, pairs):
    """One event's contributions for the buffer's target, as one chunk
    (nobody flushes here when ``fill`` reports the buffer full)."""
    for _ in buffer.side.fill({TARGET: buffer}, pairs, range(len(pairs))):
        pass


def distinct(count):
    return [(i, 1) for i in range(count)]


class TestFixedBuffer:
    def test_combines_duplicate_keys(self):
        buffer = _fixed(beta=10, tau=1.0)
        feed(buffer, [("a", 3)])
        feed(buffer, [("a", 4)])
        assert buffer.side.peek(TARGET) == [("a", 7)]
        assert buffer.pending_count == 1
        # duplicates inside one chunk combine too
        feed(buffer, [("b", 1), ("a", 1), ("b", 2)])
        assert buffer.side.peek(TARGET) == [("a", 8), ("b", 3)]
        assert buffer.pending_count == 2

    def test_min_combining_prunes_in_buffer(self):
        buffer = _fixed(beta=10, tau=1.0, aggregate=MIN)
        feed(buffer, [("a", 5), ("a", 3)])
        feed(buffer, [("a", 9)])
        assert buffer.side.peek(TARGET) == [("a", 3)]

    def test_flush_by_size(self):
        buffer = _fixed(beta=2, tau=100.0)
        feed(buffer, [("a", 1)])
        assert not buffer.should_flush(now=0.0)
        feed(buffer, [("b", 1)])
        assert buffer.should_flush(now=0.0)

    def test_flush_by_age(self):
        buffer = _fixed(beta=100, tau=0.5)
        feed(buffer, [("a", 1)])
        assert not buffer.should_flush(now=0.4)
        assert buffer.should_flush(now=0.6)

    def test_empty_never_flushes(self):
        buffer = _fixed(beta=1, tau=0.0)
        assert not buffer.should_flush(now=100.0)

    def test_flush_empties_and_stamps(self):
        buffer = _fixed(beta=1, tau=1.0)
        feed(buffer, [("a", 1)])
        payload = buffer.flush(now=2.0)
        assert payload == [("a", 1)]
        assert buffer.side.peek(TARGET) == [] and buffer.pending_count == 0
        assert buffer.last_flush_time == 2.0

    def test_snapshot_restores_content_count_clock_and_beta(self):
        buffer = _fixed(beta=8, tau=1.0)
        feed(buffer, [("a", 1), ("b", 2)])
        snap = buffer.snapshot()
        buffer.flush(now=3.0)
        buffer.beta = 99
        feed(buffer, [("c", 5)])
        buffer.restore(snap)
        assert buffer.side.peek(TARGET) == [("a", 1), ("b", 2)]
        assert (buffer.pending_count, buffer.last_flush_time, buffer.beta) == (2, 0.0, 8)
        # the snapshot does not alias the live content
        feed(buffer, [("a", 1)])
        buffer.restore(snap)
        assert buffer.side.peek(TARGET) == [("a", 1), ("b", 2)]


class TestAdaptiveBuffer:
    def _policy(self, **kwargs):
        defaults = dict(initial_beta=64, tau=1.0)
        defaults.update(kwargs)
        return BufferPolicy(adaptive=True, **defaults)

    def test_fast_pace_grows_beta(self):
        buffer = _adaptive(self._policy())
        # 1000 updates in 1 simulated second: pace 1000 > r * beta/tau = 128
        feed(buffer, distinct(1000))
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 0.8 * 1.0 * 1000  # alpha * tau * |B|/dT

    def test_slow_pace_shrinks_beta(self):
        buffer = _adaptive(self._policy())
        feed(buffer, distinct(10))  # pace 10 < beta/(r*tau) = 32
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 0.8 * 10

    def test_in_band_pace_keeps_beta(self):
        buffer = _adaptive(self._policy())
        feed(buffer, distinct(64))  # pace 64, band is (32, 128)
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 64

    def test_pace_counts_updates_not_distinct_keys(self):
        buffer = _adaptive(self._policy())
        # |B| is the update count: 1000 updates on 10 keys is still pace 1000
        feed(buffer, [(i % 10, 1) for i in range(1000)])
        assert buffer.pending_count == 10
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 0.8 * 1000

    def test_clamped_to_bounds(self):
        policy = self._policy(min_beta=8, max_beta=100)
        buffer = _adaptive(policy)
        feed(buffer, distinct(100_000))
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 100

        buffer2 = _adaptive(policy)
        feed(buffer2, distinct(1))
        buffer2.observe_flush(now=10.0)
        assert buffer2.beta == 8

    def test_window_resets_after_flush(self):
        buffer = _adaptive(self._policy())
        feed(buffer, distinct(1000))
        buffer.observe_flush(now=1.0)
        first_beta = buffer.beta
        buffer.observe_flush(now=2.0)  # empty window: pace 0 -> shrink to min
        assert buffer.beta <= first_beta

    def test_non_adaptive_policy_never_adapts(self):
        # the async engine gives a non-adaptive policy a fixed buffer
        engine = AsyncEngine(
            get_program("sssp").plan(chain(4)),
            ClusterConfig(num_workers=2),
            buffer_policy=BufferPolicy(adaptive=False, initial_beta=64),
        )
        buffer = engine._make_buffer(_side(SUM), 0, TARGET)
        assert type(buffer) is FixedBuffer
        feed(buffer, distinct(1000))
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 64

    def test_zero_length_window_is_ignored(self):
        buffer = _adaptive(self._policy())
        feed(buffer, distinct(1000))
        buffer.observe_flush(now=0.0)  # dT == 0: pace undefined, keep beta
        assert buffer.beta == 64
        # the window is not consumed either: the next real flush sees it
        buffer.observe_flush(now=1.0)
        assert buffer.beta == 0.8 * 1000

    def test_negative_window_is_ignored(self):
        buffer = _adaptive(self._policy())
        buffer._window_start = 5.0
        feed(buffer, distinct(1))
        buffer.observe_flush(now=4.0)  # clock behind the window start
        assert buffer.beta == 64

    def test_clamp_boundary_exact(self):
        # pace that computes exactly to min_beta / max_beta stays put
        policy = self._policy(min_beta=8.0, max_beta=800.0)
        buffer = _adaptive(policy)
        feed(buffer, distinct(10))
        buffer.observe_flush(now=1.0)  # 0.8 * 10 = 8.0 == min_beta
        assert buffer.beta == 8.0
        buffer2 = _adaptive(policy)
        feed(buffer2, distinct(1000))
        buffer2.observe_flush(now=1.0)  # 0.8 * 1000 = 800.0 == max_beta
        assert buffer2.beta == 800.0

    def test_on_adapt_hook_fires_only_on_change(self):
        calls = []
        buffer = _adaptive(
            self._policy(), on_adapt=lambda *args: calls.append(args)
        )
        feed(buffer, distinct(64))  # in band: no adaptation, no callback
        buffer.observe_flush(now=1.0)
        assert calls == []
        feed(buffer, distinct(1000))
        buffer.observe_flush(now=2.0)
        assert len(calls) == 1
        now, old, new, pace = calls[0]
        assert (now, old, new, pace) == (2.0, 64, 800.0, 1000.0)

    def test_on_adapt_not_called_when_clamped_to_same_value(self):
        calls = []
        policy = self._policy(min_beta=64, max_beta=64)
        buffer = _adaptive(policy, on_adapt=lambda *args: calls.append(args))
        feed(buffer, distinct(1000))
        buffer.observe_flush(now=1.0)  # rule fires, clamp keeps beta == 64
        assert buffer.beta == 64 and calls == []

    def test_snapshot_omits_the_pace_window(self):
        buffer = _adaptive(self._policy())
        feed(buffer, distinct(5))
        snap = buffer.snapshot()
        feed(buffer, distinct(7))
        buffer.restore(snap)
        # content and count roll back; the window keeps what it measured
        assert buffer.pending_count == 5
        assert buffer._window_updates == 12
