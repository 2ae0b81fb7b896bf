"""Closed-loop load generator of the served-durable workload (stdlib only).

The benchmark process hosts the service and starts this file as a child:

    python3 perfbench/loadgen.py '<json settings>'

Each producer owns one keep-alive connection and one half of the vertices.
It posts windows of churn updates and sends its next request only when the
previous one is answered, because its deletes are valid only once its inserts
are acknowledged.  Producer 0 also reads the counts once per slice, before the
slice's posts start, so the read sees the read path with the writer idle.

The timed phase runs in slices.  Before each slice the generator writes
``ready <slice>`` to stdout and waits for ``go`` (or ``stop``) on stdin: the
host runs its reference kernel and switches tracing while no request is in
flight.  At the end it writes one ``result <json>`` line with client-side
latencies, per-slice times and every producer's final edge set.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import churn  # noqa: E402  (the benchmark directory is not a package)
import measure  # noqa: E402

_perf = time.perf_counter

#: Same values as ``tracing.WINDOW_HEADER`` and ``tracing.SENT_HEADER``; the
#: client imports none of the host's modules.
WINDOW_HEADER = "x-perfbench-window"
SENT_HEADER = "x-perfbench-sent"


class Producer:
    """One closed-loop client over its own vertex block."""

    def __init__(self, index: int, settings: dict) -> None:
        self.index = index
        self.settings = settings
        self.churn = churn.served_producer(
            settings["seed"], index, settings["vertices"], settings["producers"], settings["edges"]
        )
        # Replay the preload draw so the generator's edge set matches the
        # graph the host preloaded.
        self.churn.initial(settings["edges"] // settings["producers"])
        self.connection = http.client.HTTPConnection(settings["host"], settings["port"], timeout=60)
        self.posts: list = []
        self.reads: list = []
        self.attempted = 0
        self.failed = 0
        self.sent = 0
        self.windows = 0

    def run_slice(self, slice_index: int) -> None:
        """Post this slice's windows; ``slice_sent`` counts acknowledged updates."""
        settings = self.settings
        path = f"/engines/{settings['tenant']}"
        self.slice_sent = 0
        for _ in range(settings["slice_windows"]):
            updates = self.churn.take(settings["window"])
            body = json.dumps(
                {"updates": [{"u": u, "v": v, "kind": kind} for kind, u, v in updates]}
            )
            tag = f"w{self.index}.{self.windows}"
            if self._request("POST", path + "/updates", body, tag, self.posts, slice_index):
                self.slice_sent += len(updates)
            self.windows += 1
        self.sent += self.slice_sent

    def read_counts(self, slice_index: int) -> None:
        path = f"/engines/{self.settings['tenant']}/counts"
        self._request("GET", path, None, f"r{self.index}.{slice_index}", self.reads, slice_index)

    def _request(self, method, path, body, tag, sink, slice_index) -> bool:
        headers = {WINDOW_HEADER: tag}
        if body is not None:
            headers["content-type"] = "application/json"
        self.attempted += 1
        started = _perf()
        headers[SENT_HEADER] = repr(started)
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            response.read()
            ok = response.status == 200
        except (OSError, http.client.HTTPException):
            ok = False
            self.connection.close()
        finished = _perf()
        sink.append([(finished - started) * 1e3, slice_index, tag, finished])
        if not ok:
            self.failed += 1
        return ok


def main() -> int:
    settings = json.loads(sys.argv[1])
    measure.pin_to_cpu(settings["cpu"])
    producers = [Producer(index, settings) for index in range(settings["producers"])]
    # The calling thread drives producer 0; one thread per further producer.
    start = threading.Barrier(len(producers))
    end = threading.Barrier(len(producers))

    def worker(producer: Producer) -> None:
        slice_index = 0
        try:
            while True:
                start.wait()
                producer.run_slice(slice_index)
                end.wait()
                slice_index += 1
        except threading.BrokenBarrierError:
            return  # the run is over

    threads = [threading.Thread(target=worker, args=(p,)) for p in producers[1:]]
    for thread in threads:
        thread.start()
    slices = []  # [seconds, updates acknowledged]
    began = None
    try:
        while True:
            print(f"ready {len(slices)}", flush=True)
            if sys.stdin.readline().strip() != "go":
                break
            producers[0].read_counts(len(slices))
            start.wait()
            started = _perf()
            if began is None:
                began = started
            producers[0].run_slice(len(slices))
            end.wait()
            finished = _perf()
            slices.append([finished - started, sum(p.slice_sent for p in producers)])
            if finished - began >= settings["seconds"] and len(slices) >= settings["min_slices"]:
                break
    finally:
        start.abort()
        end.abort()
        for thread in threads:
            thread.join(timeout=60)
    for producer in producers:
        producer.connection.close()
    result = {
        "slices": slices,
        "posts": [sample for p in producers for sample in p.posts],
        "reads": [sample for p in producers for sample in p.reads],
        "attempted": sum(p.attempted for p in producers),
        "failed": sum(p.failed for p in producers),
        "sent": sum(p.sent for p in producers),
        "live_edges": [edge for p in producers for edge in p.churn.live_edges],
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
