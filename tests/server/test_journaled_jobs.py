"""Journaled jobs over the REST API: record, interrupt, inspect.

A job submitted with a ``journal`` path writes the run journal as it
progresses; DELETE /jobs/<id> interrupts the run at the next epoch
boundary and leaves a well-formed, truncation-marked journal behind.
"""

import threading

import pytest

from repro.runtime import read_journal
from repro.server.background import BackgroundServer
from repro.server.client import ServerError

from tests.server.conftest import tiny_spec, wait_until_running


class TestJournaledJobs:
    @pytest.fixture(scope="class")
    def hold(self):
        """The server's job gate: open unless a test closes it."""
        gate = threading.Event()
        gate.set()
        return gate

    @pytest.fixture(scope="class")
    def server(self, hold):
        with BackgroundServer(workers=1, hold=hold) as instance:
            yield instance

    def test_completed_job_leaves_full_journal(self, server, tmp_path):
        client = server.client()
        path = tmp_path / "done.jsonl"
        job = client.submit(tiny_spec(name="journaled", duration_s=25.0),
                            journal=str(path))
        assert job["journal"] == str(path)
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["journal"] == str(path)
        records = read_journal(path)
        assert records[0]["t"] == "run-start"
        assert records[0]["spec"]["name"] == "journaled"
        assert records[-1]["t"] == "run-end"
        assert any(r["t"] == "epoch" for r in records)

    def test_cancel_truncates_journal_at_epoch_boundary(self, server, hold,
                                                        tmp_path):
        """DELETE on a running journaled job stops it at the next epoch
        boundary; every journal line parses and the final record is the
        ``truncated`` marker."""
        client = server.client()
        path = tmp_path / "cancelled.jsonl"
        hold.clear()
        try:
            job = client.submit(
                tiny_spec(name="long", homes=4, duration_s=90.0),
                journal=str(path))
            wait_until_running(client, job["id"])
            summary = client.cancel(job["id"])
            assert summary["cancel_requested"]
        finally:
            hold.set()
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "cancelled"
        # read_journal raises on any malformed (non-final) line, so a
        # clean parse is itself the "no torn writes" assertion.
        records = read_journal(path)
        assert records[-1]["t"] == "truncated"
        assert "cancelled" in records[-1]["reason"]
        assert any(r["t"] == "epoch" for r in records)
        assert not any(r["t"] == "run-end" for r in records)

    def test_unjournaled_job_summary_has_no_path(self, server):
        client = server.client()
        job = client.submit(tiny_spec(name="plain", duration_s=25.0))
        assert job["journal"] is None
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"

    def test_journal_must_be_a_string(self, server):
        client = server.client()
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/jobs",
                            body={"spec": tiny_spec(), "journal": 7})
        assert excinfo.value.status == 400

    def test_journal_must_be_non_empty(self, server):
        client = server.client()
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/jobs",
                            body={"spec": tiny_spec(), "journal": "  "})
        assert excinfo.value.status == 400
