"""Batch windows: bounds, settle steps, failure fan-out, statistics.

The cluster gateway is the one :class:`MicroBatcher` user: it ships
each window to a backend as one ``verify-batch`` frame.  These tests
drive the batcher with a stand-in shipment and with the gateway's own
settle step against a live verifier, which settles every item of a
frame on its own.

A window closes on its size bound or at the end of the event-loop tick
its first item arrived in.  The tests pin that structure by counting
loop iterations (``await asyncio.sleep(0)``), never the wall clock.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.crypto.dsa import RecoverableSignature
from repro.exceptions import ServiceError
from repro.service.batching import MicroBatcher


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
    def test_shipment_size_bound_ships_one_window(self):
        async def run():
            ship = _Shipment()
            batcher = MicroBatcher(ship, max_batch=3)
            futures = [batcher.submit({"n": index}) for index in range(3)]
            # The third submit crossed the bound: the window closed
            # inside that submit, before the loop ran again.
            assert batcher.pending == 0
            assert batcher.batch_histogram == {3: 1}
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
            assert batcher.pending == 2
            await asyncio.sleep(0)
            # The window closed at the end of the tick; its shipment
            # task starts one iteration later.
            assert batcher.pending == 0
            await asyncio.sleep(0)
            assert ship.windows == [[{"n": 0}, {"n": 1}]]
            settled = await asyncio.gather(*futures)
            assert {entry.batch_size for entry in settled} == {2}

        asyncio.run(run())

    def test_a_lone_item_ships_after_one_loop_iteration(self):
        async def run():
            _no_timers(asyncio.get_running_loop())
            batcher = MicroBatcher(_Shipment(), max_batch=1000)
            future = batcher.submit({"n": 0})
            assert batcher.batches == 0
            await asyncio.sleep(0)
            assert batcher.batch_histogram == {1: 1}
            assert (await future).batch_size == 1

        asyncio.run(run())

    def test_a_later_tick_opens_a_new_window(self):
        async def run():
            ship = _Shipment()
            batcher = MicroBatcher(ship, max_batch=1000)
            first = [batcher.submit({"n": index}) for index in range(2)]
            await asyncio.sleep(0)
            last = batcher.submit({"n": 2})
            assert batcher.pending == 1
            await asyncio.sleep(0)
            assert batcher.batch_histogram == {2: 1, 1: 1}
            await asyncio.gather(*first, last)
            assert ship.windows == [[{"n": 0}, {"n": 1}], [{"n": 2}]]

        asyncio.run(run())

    def test_a_size_bound_flush_leaves_the_tick_end_to_the_next_window(self):
        async def run():
            batcher = MicroBatcher(_Shipment(), max_batch=2)
            futures = [batcher.submit({"n": index}) for index in range(3)]
            # Items 1-2 closed their window inside the second submit;
            # item 3 opened a fresh one that closes at the end of this
            # tick.
            assert batcher.batch_histogram == {2: 1}
            assert batcher.pending == 1
            await asyncio.sleep(0)
            assert batcher.batch_histogram == {2: 1, 1: 1}
            await asyncio.gather(*futures)

        asyncio.run(run())

    def test_max_batch_one_ships_every_submit_at_once(self):
        async def run():
            batcher = MicroBatcher(_Shipment(), max_batch=1)
            future = batcher.submit({"n": 0})
            # No end-of-tick wait: the window closed on submit.
            assert batcher.pending == 0
            assert batcher.batch_histogram == {1: 1}
            assert (await future).value["echo"] == {"n": 0}

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

    def test_raising_settle_step_fails_every_waiter(self):
        async def run():
            def settle(items):
                raise RuntimeError("settle step broke")

            batcher = MicroBatcher(settle, max_batch=2)
            futures = [batcher.submit(index) for index in range(2)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(outcome, RuntimeError)
                       for outcome in outcomes)

        asyncio.run(run())

    def test_an_inline_settle_step_fails_the_window_instead_of_hanging(self):
        # A settle step must be awaitable; one that answers directly is
        # a caller error that reaches every waiter, never a hang.
        async def run():
            batcher = MicroBatcher(list, max_batch=2)
            futures = [batcher.submit(index) for index in range(2)]
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True),
                timeout=5.0,
            )
            assert all(isinstance(outcome, TypeError)
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


class TestAccounting:
    def test_queue_wait_is_reported_on_the_loop_clock(self):
        async def run():
            # A stand-in loop clock: queue wait is the time from submit
            # to settlement as the loop tells it, not a wall reading.
            loop = asyncio.get_running_loop()
            clock = [100.0]
            loop.time = lambda: clock[0]
            batcher = MicroBatcher(_Shipment(), max_batch=2)
            first = batcher.submit({"n": 0})
            clock[0] += 0.25
            second = batcher.submit({"n": 1})
            settled = await asyncio.gather(first, second)
            # The first item waited for the second; the second filled
            # the window and shipped inside its own submit.
            assert settled[0].queue_wait == pytest.approx(0.25)
            assert settled[1].queue_wait == 0.0
            assert batcher.queue_wait_total == pytest.approx(0.25)
            assert batcher.queue_wait_max == pytest.approx(0.25)

        asyncio.run(run())

    def test_stats_accumulate_across_windows(self):
        async def run():
            batcher = MicroBatcher(_Shipment(), max_batch=2)
            futures = [batcher.submit(index) for index in range(6)]
            await asyncio.gather(*futures)
            stats = batcher.stats()
            assert stats["batches"] == 3
            assert stats["items"] == 6
            assert stats["mean_batch_size"] == 2.0
            assert stats["batch_histogram"] == {"2": 3}
            assert stats["queue_wait_total"] >= 0.0
            assert "max_delay" not in stats

        asyncio.run(run())

    def test_explicit_flush_ships_pending_items(self):
        async def run():
            batcher = MicroBatcher(_Shipment(), max_batch=100)
            future = batcher.submit({"n": 0})
            assert batcher.pending == 1
            assert batcher.flush() == 1
            assert batcher.pending == 0
            assert (await future).value["echo"] == {"n": 0}

        asyncio.run(run())


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
                return [entry.value for entry in settled], \
                    gateway.stats()["aggregation"][name], backend.stats()
            finally:
                await gateway.stop()
                await backend.stop()

        results, stats, backend_stats = asyncio.run(run())
        assert [result["verdict"] for result in results] == [
            True, False, True,
        ]
        assert stats["batches"] == 1 and stats["items"] == 3
        assert "flushes" not in stats
        # One frame reached the verifier, which settled each of its
        # items on its own.
        assert backend_stats["counters"]["batch_requests"] == 1
        assert backend_stats["batching"]["items"] == 3
        assert {result["batch_size"] for result in results} == {1}


class TestVerifyBatchFrame:
    @pytest.mark.parametrize("count", (1, 12, 40))
    def test_every_item_of_a_frame_settles_on_its_own(self, count):
        """The verifier settles each item of one ``verify-batch`` frame
        inline, one ``verify_recoverable`` each: every item is a window
        of one that never waits."""
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
                return results, service.stats()["batching"]
            finally:
                await client.close()
                await service.stop()

        results, batching = asyncio.run(run())
        assert batching == {"items": count, "batches": count,
                            "queue_wait_total": 0.0}
        assert [result["verdict"] for result in results] == [True] * count
        assert {result["batch_size"] for result in results} == {1}
        assert {result["queue_wait_us"] for result in results} == {0}
