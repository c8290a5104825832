"""Property tests for the retransmit protocol around RetransmitBuffer.

The chaos layer's reliable delivery rests on one protocol: every sent
delta is tracked under its sequence number until acked; the network may
drop, duplicate or reorder deliveries (and drop acks); timeouts
retransmit the *original* payload under the *original* sequence number;
receivers deduplicate by sequence number.  Hypothesis drives seeded
interleavings of all three fault kinds at once and checks the two
invariants every engine relies on (Theorem 3's redelivery soundness):

* **exactly-once application** -- a delta is never applied twice, no
  matter how many duplicated or retransmitted copies arrive;
* **eventual drain** -- as long as the network is eventually fair
  (delivery eventually succeeds), every tracked message is acked and
  the buffer empties; nothing is lost.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.distributed.buffers import MAX_ACK_TIMEOUT, RetransmitBuffer

#: per-delivery fates the generated schedule draws from
DELIVER, DROP, DUPLICATE = 0, 1, 2

#: after this many protocol rounds the network turns fair (pure-loss
#: schedules otherwise never terminate -- real chaos schedules are
#: probabilistic, so eventual delivery is almost sure)
FAIRNESS_ROUND = 12

MAX_ROUNDS = 64


def run_protocol(payloads, fates, reorder_seed):
    """Drive sender/receiver over a faulty network until drain.

    Returns ``(applied, rounds)`` where ``applied`` maps each sequence
    number to how many times the receiver *applied* its delta.
    """
    buffer = RetransmitBuffer()
    for seq, value in enumerate(payloads):
        buffer.track(seq, {"seq": seq, "value": value})

    rng = random.Random(reorder_seed)
    fate_stream = iter(fates)
    applied = {seq: 0 for seq in range(len(payloads))}
    seen = set()  # receiver-side dedup memory, keyed by sequence number
    attempts = {seq: 0 for seq in range(len(payloads))}

    rounds = 0
    while buffer.pending and rounds < MAX_ROUNDS:
        rounds += 1
        # reordering: the network presents this round's retransmissions
        # in an arbitrary order
        in_flight = sorted(buffer.unacked)
        rng.shuffle(in_flight)
        for seq in in_flight:
            payload = buffer.get(seq)
            assert payload is not None and payload["seq"] == seq, (
                "retransmission must carry the original sequence number"
            )
            attempts[seq] += 1
            assert buffer.timeout(attempts[seq]) <= MAX_ACK_TIMEOUT
            fate = next(fate_stream, DELIVER) if rounds < FAIRNESS_ROUND else DELIVER
            if fate == DROP:
                continue  # ack timeout will retransmit next round
            copies = 2 if fate == DUPLICATE else 1
            for _ in range(copies):
                if seq not in seen:
                    seen.add(seq)
                    applied[seq] += 1
                # ack delivery can itself fail; the *next* copy or the
                # next retransmission re-acks (receiver stays idempotent)
                ack_fate = next(fate_stream, DELIVER)
                if rounds >= FAIRNESS_ROUND or ack_fate != DROP:
                    buffer.ack(seq)
    return buffer, applied, rounds


@settings(max_examples=200, deadline=None)
@given(
    payloads=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=24,
    ),
    fates=st.lists(st.integers(min_value=0, max_value=2), max_size=400),
    reorder_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_never_double_applies_and_always_drains(payloads, fates, reorder_seed):
    buffer, applied, _rounds = run_protocol(payloads, fates, reorder_seed)
    assert not buffer.pending, "every tracked message must eventually be acked"
    assert len(buffer) == 0
    assert all(count == 1 for count in applied.values()), (
        f"deltas must be applied exactly once, got {applied}"
    )


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    drop_everything_rounds=st.integers(min_value=1, max_value=FAIRNESS_ROUND - 1),
)
def test_pure_loss_phase_loses_nothing(n, drop_everything_rounds):
    """Even an all-drop prefix (every delivery and every ack lost) only
    costs rounds, never messages."""
    payloads = [float(i) for i in range(n)]
    fates = [DROP] * (n * drop_everything_rounds * 2)
    buffer, applied, rounds = run_protocol(payloads, fates, reorder_seed=7)
    assert not buffer.pending
    assert all(count == 1 for count in applied.values())
    assert rounds >= min(drop_everything_rounds, MAX_ROUNDS)


def test_ack_is_idempotent_and_get_reflects_ack():
    buffer = RetransmitBuffer()
    buffer.track(3, {"seq": 3, "value": 1.0})
    assert buffer.get(3) == {"seq": 3, "value": 1.0}
    buffer.ack(3)
    buffer.ack(3)  # double ack (duplicated ack delivery) is harmless
    assert buffer.get(3) is None
    assert not buffer.pending
