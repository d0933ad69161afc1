"""Batch windows: bounds, settle steps, failure fan-out, statistics.

One :class:`MicroBatcher` serves both tiers; these tests drive it with
both settle steps — the verifier's inline batch equation
(:func:`~repro.crypto.batch.verify_window`) and the gateway's awaited ``verify-batch``
shipment — and check that the window mechanics are the same for each.

A window closes on its size bound or at the end of the event-loop tick
its first item arrived in.  The tests pin that structure by counting
loop iterations (``await asyncio.sleep(0)``), never the wall clock.
"""

from __future__ import annotations

import asyncio
import functools
from random import Random

import pytest

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


def _verifier_batcher(max_batch):
    return MicroBatcher(
        functools.partial(verify_window, rng=Random(1)), max_batch=max_batch,
    )


def _no_timers(loop):
    """Make ``loop.call_later`` raise: a window must never arm a timer."""

    def call_later(*args, **kwargs):
        raise AssertionError("a batch window armed a timer")

    loop.call_later = call_later


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
            # inside that submit, before the loop ran again.
            assert all(future.done() for future in futures)
            settled = [await future for future in futures]
            assert [entry.value for entry in settled] == [True] * 4
            assert {entry.batch_size for entry in settled} == {4}
            assert batcher.batch_histogram == {4: 1}

        asyncio.run(run())

    def test_items_submitted_in_one_tick_share_one_window(self):
        async def run():
            _no_timers(asyncio.get_running_loop())
            batcher = _verifier_batcher(max_batch=1000)
            futures = [batcher.submit(item) for item in _items(3)]
            assert not any(future.done() for future in futures)
            await asyncio.sleep(0)
            assert all(future.done() for future in futures)
            settled = [future.result() for future in futures]
            assert [entry.value for entry in settled] == [True] * 3
            assert {entry.batch_size for entry in settled} == {3}
            assert batcher.batch_histogram == {3: 1}

        asyncio.run(run())

    def test_a_lone_item_settles_after_one_loop_iteration(self):
        async def run():
            _no_timers(asyncio.get_running_loop())
            batcher = _verifier_batcher(max_batch=1000)
            future = batcher.submit(_items(1)[0])
            assert not future.done()
            await asyncio.sleep(0)
            assert future.done()
            assert future.result().value is True
            assert future.result().batch_size == 1

        asyncio.run(run())

    def test_a_later_tick_opens_a_new_window(self):
        async def run():
            batcher = _verifier_batcher(max_batch=1000)
            items = _items(3)
            first = [batcher.submit(item) for item in items[:2]]
            await asyncio.sleep(0)
            assert all(future.done() for future in first)
            last = batcher.submit(items[2])
            assert batcher.pending == 1
            await asyncio.sleep(0)
            assert last.done()
            assert batcher.batch_histogram == {2: 1, 1: 1}

        asyncio.run(run())

    def test_a_size_bound_flush_leaves_the_tick_end_to_the_next_window(self):
        async def run():
            batcher = _verifier_batcher(max_batch=2)
            futures = [batcher.submit(item) for item in _items(3)]
            # Items 1-2 settled inside the second submit; item 3 opened
            # a fresh window that closes at the end of this tick.
            assert [future.done() for future in futures] == [
                True, True, False,
            ]
            await asyncio.sleep(0)
            assert futures[2].done()
            assert batcher.batch_histogram == {2: 1, 1: 1}

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
            batcher = MicroBatcher(ship, max_batch=3)
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

    def test_one_tick_of_items_ships_as_one_window(self):
        async def run():
            _no_timers(asyncio.get_running_loop())
            ship = _Shipment()
            batcher = MicroBatcher(ship, max_batch=64)
            futures = [batcher.submit({"n": index}) for index in range(2)]
            assert not ship.windows
            await asyncio.sleep(0)
            # The window closed at the end of the tick; its shipment
            # task starts one iteration later.
            await asyncio.sleep(0)
            assert ship.windows == [[{"n": 0}, {"n": 1}]]
            settled = await asyncio.gather(*futures)
            assert {entry.batch_size for entry in settled} == {2}

        asyncio.run(run())


class TestFailures:
    def test_failed_shipment_fails_every_waiter(self):
        async def run():
            ship = _Shipment(fail=ConnectionResetError("backend died"))
            batcher = MicroBatcher(ship, max_batch=3)
            futures = [batcher.submit({"n": index}) for index in range(3)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(outcome, ConnectionResetError)
                       for outcome in outcomes)

        asyncio.run(run())

    def test_raising_inline_settle_step_fails_every_waiter(self):
        async def run():
            def settle(items):
                raise RuntimeError("settle step broke")

            batcher = MicroBatcher(settle, max_batch=2)
            futures = [batcher.submit(index) for index in range(2)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(outcome, RuntimeError)
                       for outcome in outcomes)

        asyncio.run(run())

    def test_short_answer_fails_the_window_instead_of_hanging(self):
        async def run():
            batcher = MicroBatcher(_Shipment(short=True), max_batch=2)
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

    def test_queue_wait_is_reported_on_the_loop_clock(self):
        async def run():
            # A stand-in loop clock: queue wait is the time from submit
            # to settlement as the loop tells it, not a wall reading.
            loop = asyncio.get_running_loop()
            clock = [100.0]
            loop.time = lambda: clock[0]
            batcher = _verifier_batcher(max_batch=2)
            items = _items(2)
            first = batcher.submit(items[0])
            clock[0] += 0.25
            second = batcher.submit(items[1])
            settled = await asyncio.gather(first, second)
            # The first item waited for the second; the second filled
            # the window and settled inside its own submit.
            assert settled[0].queue_wait == pytest.approx(0.25)
            assert settled[1].queue_wait == 0.0
            assert batcher.queue_wait_total == pytest.approx(0.25)
            assert batcher.queue_wait_max == pytest.approx(0.25)

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
            shipped = MicroBatcher(_Shipment(), max_batch=2)
            await asyncio.gather(*(inline.submit(item)
                                   for item in _items(4)))
            await asyncio.gather(*(shipped.submit(index)
                                   for index in range(4)))
            return inline.stats(), shipped.stats()

        inline, shipped = asyncio.run(run())
        assert set(inline) == set(shipped)
        assert "max_delay" not in inline
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
            backend = VerificationService(ServiceConfig(fleet_hosts=8))
            address = await backend.start()
            gateway = ClusterGateway(ClusterConfig(
                backends=(address,), gather_batch=3, health_interval=30.0,
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
                    gateway.stats()["aggregation"][name], \
                    dict(backend.batcher.batch_histogram)
            finally:
                await gateway.stop()
                await backend.stop()

        verdicts, stats, backend_windows = asyncio.run(run())
        assert verdicts == [True, False, True]
        assert stats["batches"] == 1 and stats["items"] == 3
        assert "flushes" not in stats
        # The shipped frame's items entered the verifier in one tick.
        assert backend_windows == {3: 1}


class TestVerifyBatchFrame:
    @pytest.mark.parametrize("count", (1, 12, 40))
    def test_one_frame_is_one_verifier_window(self, count):
        """Every item of one ``verify-batch`` frame joins one verifier
        window: the handler's ``gather`` starts them all before the
        end-of-tick flush runs."""
        from repro.crypto.keys import Identity
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceConfig, VerificationService

        identity = Identity.generate("host-001")
        items = []
        for index in range(count):
            message = b"frame-window-%d" % index
            items.append({
                "signer": "host-001", "message": message,
                "signature": identity.private_key.sign_recoverable(message),
            })

        async def run():
            service = VerificationService(ServiceConfig(fleet_hosts=4))
            client = await ServiceClient.connect(*await service.start())
            try:
                results = await client.verify_batch(items)
                return results, dict(service.batcher.batch_histogram)
            finally:
                await client.close()
                await service.stop()

        results, histogram = asyncio.run(run())
        assert histogram == {count: 1}
        assert [result["verdict"] for result in results] == [True] * count
        assert {result["batch_size"] for result in results} == {count}
