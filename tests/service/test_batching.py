"""Batch windows: bounds, settle steps, failure fan-out, statistics.

One :class:`MicroBatcher` serves both tiers; these tests drive it with
both settle steps — the verifier's inline batch equation
(:func:`~repro.crypto.batch.verify_window`) and the gateway's awaited ``verify-batch``
shipment — and check that the window mechanics are the same for each.
"""

from __future__ import annotations

import asyncio
import functools
from random import Random


from repro.crypto.batch import verify_window
from repro.crypto.dsa import RecoverableSignature, generate_keypair
from repro.exceptions import ServiceError
from repro.service.batching import MicroBatcher


def _items(count: int, signers: int = 3):
    keys = [generate_keypair(seed=index) for index in range(signers)]
    items = []
    for index in range(count):
        private, public = keys[index % signers]
        message = b"batch-test-%04d" % index
        items.append((public, message, private.sign_recoverable(message)))
    return items


def _corrupt(item):
    public, message, signature = item
    forged = RecoverableSignature(
        r=signature.r, s=signature.s + 1, commitment=signature.commitment
    )
    return (public, message, forged)


def _verifier_batcher(max_batch, max_delay=60.0):
    return MicroBatcher(
        functools.partial(verify_window, rng=Random(1)),
        max_batch=max_batch, max_delay=max_delay,
    )


class _Shipment:
    """A stand-in backend: records each shipped window, answers later."""

    def __init__(self, fail=None, short=False):
        self.windows = []
        self.fail = fail
        self.short = short

    async def __call__(self, items):
        self.windows.append(list(items))
        await asyncio.sleep(0)
        if self.fail is not None:
            raise self.fail
        answers = [{"status": "ok", "echo": item} for item in items]
        return answers[:-1] if self.short else answers


class TestWindows:
    def test_size_bound_flushes_at_max_batch(self):
        async def run():
            batcher = _verifier_batcher(max_batch=4)
            futures = [batcher.submit(item) for item in _items(4)]
            # The fourth submit crossed the bound: everything settled
            # without the (here effectively infinite) timer.
            assert all(future.done() for future in futures)
            settled = [await future for future in futures]
            assert [entry.value for entry in settled] == [True] * 4
            assert {entry.batch_size for entry in settled} == {4}
            assert batcher.batch_histogram == {4: 1}

        asyncio.run(run())

    def test_time_bound_flushes_a_partial_window(self):
        async def run():
            batcher = _verifier_batcher(max_batch=1000, max_delay=0.01)
            futures = [batcher.submit(item) for item in _items(3)]
            settled = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            assert [entry.value for entry in settled] == [True] * 3
            assert {entry.batch_size for entry in settled} == {3}

        asyncio.run(run())

    def test_max_batch_one_settles_synchronously(self):
        async def run():
            batcher = _verifier_batcher(max_batch=1)
            future = batcher.submit(_items(1)[0])
            # No timer, no waiting: the future resolves on submit.
            assert future.done()
            assert (await future).value is True
            assert batcher.batch_histogram == {1: 1}

        asyncio.run(run())

    def test_shipment_size_bound_ships_one_window(self):
        async def run():
            ship = _Shipment()
            batcher = MicroBatcher(ship, max_batch=3, max_delay=60.0)
            futures = [batcher.submit({"n": index}) for index in range(3)]
            settled = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            assert ship.windows == [[{"n": 0}, {"n": 1}, {"n": 2}]]
            assert [entry.value["echo"] for entry in settled] == [
                {"n": 0}, {"n": 1}, {"n": 2},
            ]
            assert {entry.batch_size for entry in settled} == {3}

        asyncio.run(run())

    def test_shipment_delay_bound_ships_a_partial_window(self):
        async def run():
            ship = _Shipment()
            batcher = MicroBatcher(ship, max_batch=64, max_delay=0.01)
            futures = [batcher.submit({"n": index}) for index in range(2)]
            assert not ship.windows
            settled = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            assert len(ship.windows) == 1
            assert {entry.batch_size for entry in settled} == {2}

        asyncio.run(run())


class TestFailures:
    def test_failed_shipment_fails_every_waiter(self):
        async def run():
            ship = _Shipment(fail=ConnectionResetError("backend died"))
            batcher = MicroBatcher(ship, max_batch=3, max_delay=60.0)
            futures = [batcher.submit({"n": index}) for index in range(3)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(outcome, ConnectionResetError)
                       for outcome in outcomes)

        asyncio.run(run())

    def test_raising_inline_settle_step_fails_every_waiter(self):
        async def run():
            def settle(items):
                raise RuntimeError("settle step broke")

            batcher = MicroBatcher(settle, max_batch=2, max_delay=60.0)
            futures = [batcher.submit(index) for index in range(2)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(outcome, RuntimeError)
                       for outcome in outcomes)

        asyncio.run(run())

    def test_short_answer_fails_the_window_instead_of_hanging(self):
        async def run():
            batcher = MicroBatcher(_Shipment(short=True), max_batch=2,
                                   max_delay=60.0)
            futures = [batcher.submit(index) for index in range(2)]
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True),
                timeout=5.0,
            )
            assert all(isinstance(outcome, ServiceError)
                       for outcome in outcomes)

        asyncio.run(run())


class TestVerdicts:
    def test_bad_signature_is_attributed_within_the_window(self):
        async def run():
            batcher = _verifier_batcher(max_batch=5)
            items = _items(5)
            items[2] = _corrupt(items[2])
            futures = [batcher.submit(item) for item in items]
            settled = await asyncio.gather(*futures)
            assert [entry.value for entry in settled] == [
                True, True, False, True, True,
            ]

        asyncio.run(run())

    def test_queue_wait_is_reported(self):
        async def run():
            batcher = _verifier_batcher(max_batch=2)
            first = batcher.submit(_items(1)[0])
            await asyncio.sleep(0.01)
            second = batcher.submit(_items(2)[1])
            settled = await asyncio.gather(first, second)
            # The first item waited at least the sleep; the second
            # triggered the flush immediately.
            assert settled[0].queue_wait >= 0.009
            assert settled[1].queue_wait <= settled[0].queue_wait

        asyncio.run(run())

    def test_stats_accumulate_across_windows(self):
        async def run():
            batcher = _verifier_batcher(max_batch=2)
            futures = [batcher.submit(item) for item in _items(6)]
            await asyncio.gather(*futures)
            stats = batcher.stats()
            assert stats["batches"] == 3
            assert stats["items"] == 6
            assert stats["mean_batch_size"] == 2.0
            assert stats["batch_histogram"] == {"2": 3}

        asyncio.run(run())

    def test_explicit_flush_settles_pending_items(self):
        async def run():
            batcher = _verifier_batcher(max_batch=100)
            future = batcher.submit(_items(1)[0])
            assert batcher.pending == 1
            assert batcher.flush() == 1
            assert batcher.pending == 0
            assert (await future).value is True

        asyncio.run(run())


class TestOneStatsShape:
    def test_both_settle_steps_report_the_same_fields(self):
        async def run():
            inline = _verifier_batcher(max_batch=2)
            shipped = MicroBatcher(_Shipment(), max_batch=2, max_delay=60.0)
            await asyncio.gather(*(inline.submit(item)
                                   for item in _items(4)))
            await asyncio.gather(*(shipped.submit(index)
                                   for index in range(4)))
            return inline.stats(), shipped.stats()

        inline, shipped = asyncio.run(run())
        assert set(inline) == set(shipped)
        for stats in (inline, shipped):
            assert stats["batches"] == 2
            assert stats["items"] == 4
            assert stats["batch_histogram"] == {"2": 2}
            assert stats["queue_wait_total"] >= 0.0


class TestGatewayShipment:
    def test_gateway_windows_ship_to_a_real_verifier(self):
        """The gateway's own settle step against a live backend: one
        ``verify-batch`` frame per window, one verdict per item."""
        from repro.crypto.keys import Identity
        from repro.service.cluster import ClusterConfig, ClusterGateway
        from repro.service.server import ServiceConfig, VerificationService

        identity = Identity.generate("host-001")

        async def run():
            backend = VerificationService(
                ServiceConfig(max_delay=0.001, fleet_hosts=8)
            )
            address = await backend.start()
            gateway = ClusterGateway(ClusterConfig(
                backends=(address,), gather_batch=3, gather_delay=60.0,
                health_interval=30.0,
            ))
            await gateway.start()
            try:
                (name,) = gateway._batchers
                batcher = gateway._batchers[name]
                items = []
                for index in range(3):
                    message = b"gateway-window-%d" % index
                    signature = identity.private_key.sign_recoverable(message)
                    if index == 1:
                        signature = RecoverableSignature(
                            r=signature.r, s=signature.s + 1,
                            commitment=signature.commitment,
                        )
                    items.append({"signer": "host-001", "message": message,
                                  "signature": signature.to_canonical()})
                settled = await asyncio.wait_for(asyncio.gather(
                    *(batcher.submit(item) for item in items)
                ), timeout=30.0)
                return [entry.value["verdict"] for entry in settled], \
                    gateway.stats()["aggregation"][name]
            finally:
                await gateway.stop()
                await backend.stop()

        verdicts, stats = asyncio.run(run())
        assert verdicts == [True, False, True]
        assert stats["batches"] == 1 and stats["items"] == 3
        assert "flushes" not in stats
