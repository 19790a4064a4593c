"""Service lifecycle tests: the job queue, the HTTP API, the client.

Everything runs against an in-process server on an ephemeral port
(``start_server`` with ``port=0``) at a deliberately small scale, so
the suite exercises the full submit → poll → fetch path — coalescing,
backpressure, cancellation, graceful drain — without slow simulations.
Jobs that must be *observably* slow get there via a monkeypatched
``Session._simulate`` sleep, not via bigger kernels.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.api import Session, Sweep
from repro.api.session import Session as SessionClass
from repro.api.spec import Point
from repro.errors import QueueFullError, ServiceError
from repro.service import (
    JobScheduler,
    ServiceClient,
    ServiceConfig,
    result_rows,
    start_server,
    stop_server,
)

SCALE = 1_500


def _sweep(name: str = "svc", windows=(8, 16)) -> Sweep:
    return Sweep.grid(
        name=name,
        program="flo52q",
        machine=("dm", "swsm"),
        window=tuple(windows),
        memory_differential=60,
    )


@pytest.fixture
def service(tmp_path):
    """A running server + client; drained and closed afterwards."""
    config = ServiceConfig(
        scale=SCALE,
        workers=2,
        port=0,
        cache_dir=str(tmp_path / "cache"),
        store_path=str(tmp_path / "results.sqlite"),
    )
    server, scheduler, _ = start_server(config)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    yield client, scheduler, server
    stop_server(server, timeout=30.0)


def _slow_simulate(monkeypatch, seconds: float):
    """Make every fresh simulation (not cache hits) take >= seconds."""
    original = SessionClass._simulate

    def patched(self, canonical):
        time.sleep(seconds)
        return original(self, canonical)

    monkeypatch.setattr(SessionClass, "_simulate", patched)


class TestHappyPath:
    def test_submit_poll_fetch_point(self, service):
        client, _, _ = service
        point = Point(program="flo52q", machine="dm", window=16,
                      memory_differential=60)
        job_id = client.submit_point(point)
        payload = client.fetch(job_id, timeout=120)
        assert payload["state"] == "done"
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        direct = Session(scale=SCALE)
        assert row["cycles"] == direct.evaluate(point).cycles
        assert row["point"]["program"] == "flo52q"
        assert len(row["key"]) == 64  # the store's content address

    def test_sweep_rows_match_direct_session_byte_for_byte(self, service):
        client, _, _ = service
        sweep = _sweep()
        job_id = client.submit_sweep(sweep)
        payload = client.fetch(job_id, timeout=120)

        session = Session(scale=SCALE)
        outcome = session.run(sweep)
        expected = result_rows(
            outcome.points, outcome.results, SCALE, session.latencies
        )
        assert (
            json.dumps(payload["rows"], sort_keys=True)
            == json.dumps(expected, sort_keys=True)
        )

    def test_health_and_job_listing(self, service):
        client, _, _ = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        job_id = client.submit_point(Point(program="flo52q", window=8))
        client.wait(job_id, timeout=120)
        assert any(job["id"] == job_id for job in client.jobs())

    def test_keep_alive_requests_are_not_delayed(self, service):
        """Requests after the first on one kept-alive connection must
        not wait on the client's delayed ACK (Nagle: ~40 ms each)."""
        _, _, server = service
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        elapsed = []
        try:
            for _ in range(5):
                started = time.perf_counter()
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.020, elapsed

    def test_results_endpoint_serves_store_rows(self, service):
        client, _, _ = service
        job_id = client.submit_point(
            Point(program="flo52q", machine="dm", window=8,
                  memory_differential=60)
        )
        client.fetch(job_id, timeout=120)
        payload = client.results(program="flo52q", machine="dm")
        assert payload["summary"]["results"] >= 1
        assert all(row["program"] == "flo52q" for row in payload["rows"])


class TestCoalescing:
    def test_duplicate_submission_one_job_two_fetchers(self, service):
        """Two concurrent submitters of the same spec share one job."""
        client, scheduler, _ = service
        sweep = _sweep("coalesce")
        spec = sweep.to_dict()
        outcomes = []

        def submit_and_fetch():
            response = client.submit("sweep", spec)
            outcomes.append(
                (response["id"], client.fetch(response["id"], timeout=120))
            )

        threads = [
            threading.Thread(target=submit_and_fetch) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        (id_a, rows_a), (id_b, rows_b) = outcomes
        assert id_a == id_b
        assert rows_a["rows"] == rows_b["rows"]
        assert len(scheduler.jobs()) == 1  # one simulation happened

    def test_equivalent_spellings_share_a_job(self, service):
        """A sweep and its point list content-address identically."""
        client, _, _ = service
        point = Point(program="flo52q", machine="dm", window=16,
                      memory_differential=60)
        first = client.submit_point(point)
        # A second submission, spelled through the low-level API.
        response = client.submit("point", {
            "program": "flo52q", "machine": "dm", "window": 16,
            "memory_differential": 60,
        })
        assert response["id"] == first
        assert response["coalesced"] is True
        assert response["hits"] == 1

    def test_done_job_serves_new_fetchers_without_resimulation(
        self, service, monkeypatch
    ):
        client, _, _ = service
        sweep = _sweep("warm")
        job_id = client.submit_sweep(sweep)
        client.fetch(job_id, timeout=120)
        # Any further simulation would now blow up loudly.
        monkeypatch.setattr(
            SessionClass,
            "_simulate",
            lambda self, canonical: pytest.fail("re-simulated a done job"),
        )
        again = client.submit("sweep", sweep.to_dict())
        assert again["coalesced"] is True
        assert client.result(job_id)["rows"]


class TestWarmStore:
    def test_restarted_server_serves_from_store_without_simulating(
        self, tmp_path, monkeypatch
    ):
        """A fresh scheduler on a warm store never touches the engine."""
        store_path = str(tmp_path / "warm.sqlite")
        sweep = _sweep("restart")

        config = ServiceConfig(
            scale=SCALE, workers=1, port=0, store_path=store_path
        )
        server, _, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        first = client.fetch(client.submit_sweep(sweep), timeout=120)
        stop_server(server)

        monkeypatch.setattr(
            SessionClass,
            "_simulate",
            lambda self, canonical: pytest.fail(
                "store-resident point was re-simulated"
            ),
        )
        server2, _, _ = start_server(config)
        host2, port2 = server2.server_address[:2]
        client2 = ServiceClient(f"http://{host2}:{port2}")
        second = client2.fetch(client2.submit_sweep(sweep), timeout=120)
        stop_server(server2)
        assert second["rows"] == first["rows"]


class TestBackpressure:
    def test_queue_full_returns_503_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        _slow_simulate(monkeypatch, 0.5)
        config = ServiceConfig(
            scale=SCALE, workers=1, queue_limit=1, port=0, retry_after=7
        )
        server, scheduler, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            running = client.submit_point(Point(program="flo52q", window=4))
            deadline = time.monotonic() + 30
            while client.job(running)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # Worker is busy: this one occupies the single queue slot...
            client.submit_point(Point(program="flo52q", window=5))
            # ... and the next distinct job must be refused, not queued.
            with pytest.raises(QueueFullError) as excinfo:
                client.submit_point(Point(program="flo52q", window=6))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 7.0
        finally:
            stop_server(server, timeout=30.0)

    def test_duplicate_of_inflight_job_coalesces_past_a_full_queue(
        self, tmp_path, monkeypatch
    ):
        """Backpressure never applies to coalescing resubmissions."""
        _slow_simulate(monkeypatch, 0.5)
        config = ServiceConfig(
            scale=SCALE, workers=1, queue_limit=1, port=0
        )
        server, _, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            point = Point(program="flo52q", window=4)
            job_id = client.submit_point(point)
            response = client.submit("point", {
                "program": "flo52q", "window": 4,
            })
            assert response["id"] == job_id
            assert response["coalesced"] is True
        finally:
            stop_server(server, timeout=30.0)


class TestErrors:
    def test_malformed_spec_maps_config_error_to_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit("point", {"program": "flo52q", "bogus": 1})
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_unknown_machine_maps_to_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit("point", {"program": "flo52q", "machine": "vliw"})
        assert excinfo.value.status == 400
        assert "unknown machine" in str(excinfo.value)

    def test_unknown_program_maps_to_400_at_submit(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit("point", {"program": "nope"})
        assert excinfo.value.status == 400
        assert "unknown kernel" in str(excinfo.value)

    def test_unknown_kind_maps_to_400(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit("batch", {"program": "flo52q"})
        assert excinfo.value.status == 400

    def test_invalid_json_body_maps_to_400(self, service):
        client, _, server = service
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        connection.request(
            "POST", "/v1/jobs", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_unknown_job_is_404(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.job("f" * 64)
        assert excinfo.value.status == 404

    def test_result_before_done_is_202_with_retry_after(
        self, service, monkeypatch
    ):
        client, _, _ = service
        _slow_simulate(monkeypatch, 0.5)
        job_id = client.submit_point(Point(program="flo52q", window=6))
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 202
        assert excinfo.value.retry_after is not None
        client.fetch(job_id, timeout=120)  # settle before teardown


class TestCancellation:
    def test_cancel_queued_job_then_result_is_410(
        self, tmp_path, monkeypatch
    ):
        _slow_simulate(monkeypatch, 0.5)
        config = ServiceConfig(
            scale=SCALE, workers=1, queue_limit=8, port=0
        )
        server, _, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            running = client.submit_point(Point(program="flo52q", window=4))
            deadline = time.monotonic() + 30
            while client.job(running)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = client.submit_point(Point(program="flo52q", window=5))
            cancelled = client.cancel(queued)
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError) as excinfo:
                client.result(queued)
            assert excinfo.value.status == 410
            # Cancelling a running (or finished) job is refused.
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(running)
            assert excinfo.value.status == 409
        finally:
            stop_server(server, timeout=30.0)

    def test_resubmitting_a_cancelled_job_requeues_it(self, service):
        client, scheduler, _ = service
        point = Point(program="flo52q", window=12)
        job_id = client.submit_point(point)
        scheduler.cancel(job_id)  # may lose the race with a worker
        response = client.submit("point", {
            "program": "flo52q", "window": 12,
        })
        assert response["id"] == job_id
        payload = client.fetch(job_id, timeout=120)
        assert payload["state"] == "done"


class TestGracefulShutdown:
    def test_drain_finishes_running_job_and_refuses_new_work(
        self, tmp_path, monkeypatch
    ):
        _slow_simulate(monkeypatch, 0.5)
        config = ServiceConfig(
            scale=SCALE, workers=1, queue_limit=8, port=0,
            drain_timeout=60.0,
        )
        server, scheduler, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        running = client.submit_point(Point(program="flo52q", window=4))
        queued = client.submit_point(Point(program="flo52q", window=5))
        deadline = time.monotonic() + 30
        while client.job(running)["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)

        drained: list[bool] = []
        drainer = threading.Thread(
            target=lambda: drained.append(scheduler.drain())
        )
        drainer.start()
        # While draining, submissions are refused with 503 ...
        with pytest.raises(QueueFullError) as excinfo:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                client.submit_point(Point(program="flo52q", window=6))
                time.sleep(0.01)
        assert "draining" in str(excinfo.value)
        drainer.join(timeout=60)
        assert drained == [True]
        # ... the running job finished, the queued one was cancelled.
        assert client.job(running)["state"] == "done"
        assert client.job(queued)["state"] in ("cancelled", "done")
        server.shutdown()
        server.server_close()


class TestPriorities:
    def test_lower_priority_value_runs_first(self, tmp_path, monkeypatch):
        _slow_simulate(monkeypatch, 0.3)
        config = ServiceConfig(
            scale=SCALE, workers=1, queue_limit=8, port=0
        )
        server, _, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            blocker = client.submit_point(Point(program="flo52q", window=4))
            deadline = time.monotonic() + 30
            while client.job(blocker)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            low = client.submit(
                "point", {"program": "flo52q", "window": 5}, priority=5
            )["id"]
            high = client.submit(
                "point", {"program": "flo52q", "window": 6}, priority=0
            )["id"]
            client.wait(low, timeout=120)
            client.wait(high, timeout=120)
            assert (
                client.job(high)["started"] <= client.job(low)["started"]
            )
        finally:
            stop_server(server, timeout=30.0)


class TestArtifacts:
    def test_serves_report_site_pages(self, tmp_path):
        site = tmp_path / "site"
        site.mkdir()
        (site / "index.html").write_text("<h1>repro report</h1>")
        (site / "manifest.json").write_text('{"pages": []}')
        config = ServiceConfig(scale=SCALE, port=0, site_dir=str(site))
        server, _, _ = start_server(config)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            assert b"repro report" in client.artifact("index.html")
            assert json.loads(client.artifact("manifest.json")) == {
                "pages": []
            }
            with pytest.raises(ServiceError) as excinfo:
                client.artifact("missing.html")
            assert excinfo.value.status == 404
        finally:
            stop_server(server)

    def test_path_traversal_is_rejected(self, tmp_path):
        site = tmp_path / "site"
        site.mkdir()
        secret = tmp_path / "secret.txt"
        secret.write_text("outside")
        config = ServiceConfig(scale=SCALE, port=0, site_dir=str(site))
        server, _, _ = start_server(config)
        host, port = server.server_address[:2]
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.putrequest(
                "GET", "/v1/artifacts/../secret.txt",
                skip_host=False, skip_accept_encoding=True,
            )
            connection.endheaders()
            response = connection.getresponse()
            assert response.status in (403, 404)
            assert b"outside" not in response.read()
            connection.close()
        finally:
            stop_server(server)

    def test_no_site_configured_is_404(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.artifact("index.html")
        assert excinfo.value.status == 404


class TestSchedulerDirect:
    """Scheduler-core behaviour that needs no HTTP round trip."""

    def test_submit_validates_before_admitting(self):
        scheduler = JobScheduler(
            ServiceConfig(scale=SCALE, workers=1, queue_limit=2)
        )
        try:
            from repro.errors import ConfigError

            with pytest.raises(ConfigError):
                scheduler.submit("point", {"program": ""})
            with pytest.raises(ConfigError):
                scheduler.submit("sweep", ["not", "a", "table"])
            assert scheduler.jobs() == []
        finally:
            scheduler.drain(timeout=5)

    def test_counts_track_states(self):
        scheduler = JobScheduler(
            ServiceConfig(scale=SCALE, workers=1, queue_limit=4)
        )
        try:
            job, coalesced = scheduler.submit(
                "point", {"program": "flo52q", "window": 8}
            )
            assert not coalesced
            deadline = time.monotonic() + 60
            while scheduler.job(job.id).state != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            counts = scheduler.counts()
            assert counts["done"] == 1
            assert counts["queue_depth"] == 0
        finally:
            scheduler.drain(timeout=5)
