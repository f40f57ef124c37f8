"""Drain regression: one connection must not wedge the worker that lost
the accept race.

Every worker selects on the one shared listening socket, so a single
connection wakes them all and only one ``accept()`` wins.  On a blocking
listening socket the losers then block in ``accept()`` until the next
connection, never see the flag ``shutdown()`` sets, and a drain ends in
SIGKILL at its timeout.  The workers' listening socket is therefore
non-blocking, while the connections they accept stay blocking.

Whether a loser exists in a real two-worker run depends on scheduling,
so the first test drives the loser's path — an accept attempt with
nothing pending — directly; the last one is the end-to-end drain.
"""

import socket
import threading
import time
import urllib.request

import pytest

from repro.serve import PreforkServer
from repro.serve.workers import _WorkerWSGIServer

pytestmark = pytest.mark.serve

DRAIN_TIMEOUT_S = 10.0


def _hello_app(environ, start_response):
    start_response("200 OK", [("Content-Type", "text/plain")])
    return [b"hello"]


def _hello_factory(index):
    return _hello_app


@pytest.fixture()
def listener():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    yield sock
    sock.close()


def test_losing_the_accept_race_does_not_block(listener):
    """With no connection pending, a worker's accept attempt returns at
    once instead of waiting for the next connection."""
    server = _WorkerWSGIServer(listener)
    worker = threading.Thread(target=server._handle_request_noblock,
                              daemon=True)
    worker.start()
    worker.join(timeout=2.0)
    assert not worker.is_alive(), "accept() blocked with nothing pending"
    assert listener.getblocking() is False


def test_accepted_connection_is_still_blocking(listener):
    server = _WorkerWSGIServer(listener)
    client = socket.create_connection(listener.getsockname()[:2])
    try:
        conn, _ = server.get_request()
        try:
            assert conn.getblocking() is True
            assert conn.gettimeout() is None
        finally:
            conn.close()
    finally:
        client.close()


def test_two_workers_one_connection_then_sigterm_exit_cleanly():
    server = PreforkServer(_hello_factory, workers=2).start()
    try:
        with urllib.request.urlopen(server.url + "/", timeout=10) as reply:
            assert reply.read() == b"hello"
        time.sleep(0.3)             # both workers back in select()
    finally:
        started = time.monotonic()
        statuses = server.shutdown(timeout=DRAIN_TIMEOUT_S)
        elapsed = time.monotonic() - started
    assert statuses == {0: 0, 1: 0}
    assert elapsed < DRAIN_TIMEOUT_S / 4, f"drain took {elapsed:.2f} s"

