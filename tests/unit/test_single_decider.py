"""The threading contract: one decider thread, client threads at the queue.

The engine decides on one thread.  Client threads may only submit, cancel
and poll through the :class:`AdmissionQueue`; three locks make that safe —
the queue's, the metrics registry's (``submit`` counts into it) and the
event-sequence counter's.  Everything else is single-threaded and carries
no lock.
"""

import re
import threading
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import MetricsRegistry
from repro.runtime.engine import ProcessRegionExecutor
from repro.runtime.events import StopEvent
from repro.runtime.queue import AdmissionQueue, RequestStatus
from tests.harness import make_app, make_manager

SOURCE_ROOT = Path(repro.__file__).resolve().parent

CLIENTS = 4
PER_CLIENT = 40


def _sources():
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        yield path.relative_to(SOURCE_ROOT).as_posix(), path.read_text()


def _run_clients(target):
    """Run ``target(index)`` on CLIENTS threads released together."""
    barrier = threading.Barrier(CLIENTS)

    def client(index):
        barrier.wait()
        target(index)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    return threads


class TestSourceContract:
    def test_only_queue_metrics_and_events_import_threading(self):
        importers = {
            name
            for name, text in _sources()
            if re.search(r"^\s*(import threading|from threading import)", text, re.M)
        }
        assert importers == {"runtime/queue.py", "obs/metrics.py", "runtime/events.py"}

    def test_no_module_starts_a_thread(self):
        starters = [
            name
            for name, text in _sources()
            if re.search(r"\bThread\(|ThreadPoolExecutor", text)
        ]
        assert starters == []

    def test_process_executor_takes_no_lock_or_guard(self):
        partition = make_manager().partition
        for keyword in ("locks", "guard"):
            with pytest.raises(TypeError):
                ProcessRegionExecutor(partition, **{keyword: None})


class TestClientThreads:
    def test_concurrent_submits_get_distinct_tickets(self):
        manager = make_manager()
        queue = AdmissionQueue(manager)
        app = make_app(300, "client", "io_l")
        tickets: list[list[int]] = [[] for _ in range(CLIENTS)]

        def submit_many(index):
            for _ in range(PER_CLIENT):
                tickets[index].append(queue.submit(app.als, library=app.library))

        for thread in _run_clients(submit_many):
            thread.join()
        issued = [ticket for per_client in tickets for ticket in per_client]
        assert len(set(issued)) == CLIENTS * PER_CLIENT
        assert sorted(r.ticket for r in queue.pending) == sorted(issued)

    def test_submits_racing_the_decider_are_each_taken_once(self):
        manager = make_manager()
        queue = AdmissionQueue(manager)
        app = make_app(301, "client", "io_r")

        def submit_many(_index):
            for _ in range(PER_CLIENT):
                queue.submit(app.als, library=app.library)

        threads = _run_clients(submit_many)
        taken: list[int] = []
        while any(thread.is_alive() for thread in threads) or queue.pending:
            _, ready = queue.take()
            taken.extend(request.ticket for request in ready)
        for thread in threads:
            thread.join()
        assert len(taken) == len(set(taken)) == CLIENTS * PER_CLIENT
        assert all(
            queue.poll(ticket).status is RequestStatus.IN_FLIGHT for ticket in taken
        )

    def test_cancels_racing_the_decider_settle_each_request_once(self):
        manager = make_manager()
        queue = AdmissionQueue(manager)
        app = make_app(302, "client", "io_l")
        tickets = [
            queue.submit(app.als, library=app.library)
            for _ in range(CLIENTS * PER_CLIENT)
        ]
        withdrawn: list[set[int]] = [set() for _ in range(CLIENTS)]

        def cancel_share(index):
            for ticket in tickets[index::CLIENTS]:
                if queue.cancel(ticket):
                    withdrawn[index].add(ticket)

        threads = _run_clients(cancel_share)
        taken: set[int] = set()
        while any(thread.is_alive() for thread in threads):
            _, ready = queue.take(max_requests=3)
            taken.update(request.ticket for request in ready)
        for thread in threads:
            thread.join()
        cancelled = set().union(*withdrawn)
        # A request is either withdrawn by its client or claimed by the
        # decider (or still pending) — never both.
        assert not cancelled & taken
        for ticket in tickets:
            status = queue.poll(ticket).status
            if ticket in cancelled:
                assert status is RequestStatus.CANCELLED
            elif ticket in taken:
                assert status is RequestStatus.IN_FLIGHT
            else:
                assert status is RequestStatus.PENDING

    def test_concurrent_counts_into_the_registry_are_exact(self):
        registry = MetricsRegistry()

        def count_many(_index):
            for _ in range(PER_CLIENT):
                registry.count("queue.submitted")
                registry.observe("client.latency_s", 0.001)

        for thread in _run_clients(count_many):
            thread.join()
        assert registry.counter_value("queue.submitted") == CLIENTS * PER_CLIENT
        assert registry.histogram_for("client.latency_s").count == CLIENTS * PER_CLIENT

    def test_concurrent_events_get_unique_sequence_numbers(self):
        events: list[list[StopEvent]] = [[] for _ in range(CLIENTS)]

        def create_many(index):
            for _ in range(PER_CLIENT):
                events[index].append(StopEvent(time_ns=0.0, application="x"))

        for thread in _run_clients(create_many):
            thread.join()
        sequences = [event.seq for per_client in events for event in per_client]
        assert len(set(sequences)) == CLIENTS * PER_CLIENT
        for per_client in events:
            # Within one creating thread, creation order is sequence order.
            assert [e.seq for e in per_client] == sorted(e.seq for e in per_client)
