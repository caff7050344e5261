"""Unit/behavioural tests for the Redoop runtime."""

from __future__ import annotations

from collections import Counter as PyCounter

import pytest

from repro.core import (
    REDUCE_INPUT,
    REDUCE_OUTPUT,
    RecurringQuery,
    RedoopRuntime,
    WindowSpec,
    merging_finalizer,
)
from repro.hadoop import BatchFile, Cluster, ClusterConfig, Record, small_test_config

from ..conftest import wordcount_job


WIN, SLIDE = 40.0, 10.0  # pane = 10, 4 panes per window


def make_query(num_reducers=4, name="wc") -> RecurringQuery:
    return RecurringQuery(
        name=name,
        job=wordcount_job(num_reducers=num_reducers, name=name),
        windows={"S1": WindowSpec(win=WIN, slide=SLIDE)},
        finalize=merging_finalizer(sum),
    )


#: High enough that Algorithm 1 picks the oversize case (pane bytes >=
#: the 4 MB test block size), so pane files appear as panes seal.
RATE = 500_000.0


def make_runtime(**kwargs) -> RedoopRuntime:
    cluster = Cluster(small_test_config(), seed=3)
    runtime = RedoopRuntime(cluster, **kwargs)
    runtime.register_query(make_query(), {"S1": RATE})
    return runtime


def batch(i: int, t0: float, t1: float, n: int = 20, key_space: int = 5):
    import random

    rng = random.Random(i)
    dt = (t1 - t0) / n
    records = [
        Record(
            ts=t0 + j * dt,
            value=f"w{rng.randrange(key_space)}",
            size=100,
        )
        for j in range(n)
    ]
    return (
        BatchFile(path=f"/b/S1/{i}", source="S1", t_start=t0, t_end=t1),
        records,
    )


def feed(runtime: RedoopRuntime, upto: float, batch_seconds: float = 10.0):
    """Ingest consecutive batches covering [0, upto)."""
    fed = []
    i = 0
    t = 0.0
    while t < upto - 1e-9:
        b, records = batch(i, t, t + batch_seconds)
        runtime.ingest(b, records)
        fed.extend(records)
        i += 1
        t += batch_seconds
    return fed


class TestRegistration:
    def test_duplicate_query_rejected(self):
        runtime = make_runtime()
        with pytest.raises(ValueError):
            runtime.register_query(make_query(), {"S1": RATE})

    def test_missing_rates_rejected(self):
        cluster = Cluster(small_test_config(), seed=3)
        runtime = RedoopRuntime(cluster)
        with pytest.raises(ValueError):
            runtime.register_query(make_query(), {})

    def test_unknown_query_rejected(self):
        runtime = make_runtime()
        with pytest.raises(ValueError):
            runtime.run_recurrence("ghost")

    def test_queries_listed(self):
        assert make_runtime().queries() == ["wc"]


class TestIngest:
    def test_unrouted_source_rejected(self):
        runtime = make_runtime()
        b, records = batch(0, 0.0, 10.0)
        bad = BatchFile(path="/b/x", source="S9", t_start=0.0, t_end=10.0)
        with pytest.raises(ValueError):
            runtime.ingest(bad, [])

    def test_panes_registered_on_arrival(self):
        runtime = make_runtime()
        feed(runtime, 20.0)
        assert runtime.controller.pane_ready("wc:S1P0") >= 1
        assert runtime.controller.pane_ready("wc:S1P1") >= 1


class TestCorrectness:
    def test_window_output_matches_ground_truth(self):
        runtime = make_runtime()
        records = feed(runtime, 70.0)
        for k in (1, 2, 3):
            result = runtime.run_recurrence("wc", k)
            start, end = result.window_bounds["S1"]
            expected = PyCounter(
                r.value for r in records if start <= r.ts < end
            )
            assert dict(result.output) == dict(expected)

    def test_missing_data_rejected(self):
        runtime = make_runtime()
        feed(runtime, 30.0)  # window 1 needs data through 40
        with pytest.raises(RuntimeError):
            runtime.run_recurrence("wc", 1)

    def test_out_of_order_recurrence_rejected(self):
        runtime = make_runtime()
        feed(runtime, 60.0)
        runtime.run_recurrence("wc", 1)
        with pytest.raises(ValueError):
            runtime.run_recurrence("wc", 3)

    def test_output_written_to_hdfs(self):
        runtime = make_runtime()
        feed(runtime, 40.0)
        runtime.run_recurrence("wc", 1)
        assert runtime.cluster.hdfs.exists("/out/wc/w0001")

    def test_deterministic(self):
        def run():
            runtime = make_runtime()
            feed(runtime, 60.0)
            results = [runtime.run_recurrence("wc") for _ in range(3)]
            return [(r.finish_time, tuple(sorted(r.output))) for r in results]

        assert run() == run()


class TestCachingBehaviour:
    def test_overlapping_panes_reused(self):
        runtime = make_runtime()
        feed(runtime, 60.0)
        r1 = runtime.run_recurrence("wc", 1)
        r2 = runtime.run_recurrence("wc", 2)
        # Window 2 shares 3 of its 4 panes with window 1.
        assert r2.counters.get("cache.pane_hits") == 3
        assert r2.counters.get("map.tasks") >= 1
        assert r2.counters.get("map.input_bytes") < r1.counters.get(
            "map.input_bytes"
        )

    def test_caches_created_on_nodes(self):
        runtime = make_runtime()
        feed(runtime, 40.0)
        runtime.run_recurrence("wc", 1)
        registries = runtime.registries()
        total = sum(len(r.live_entries()) for r in registries.values())
        # 4 panes x 4 partitions x 2 cache types.
        assert total == 32

    def test_cache_types_present(self):
        runtime = make_runtime()
        feed(runtime, 40.0)
        runtime.run_recurrence("wc", 1)
        types = {
            e.cache_type
            for r in runtime.registries().values()
            for e in r.live_entries()
        }
        assert types == {REDUCE_INPUT, REDUCE_OUTPUT}

    def test_registries_created_on_first_write(self):
        """Set-up does no per-node cache work on the 30-node paper cluster.

        Building every node's registry up front once raised the
        benchmark's ``setup_s`` by 27-29% on its two 30-node workloads
        (``agg-steady``, ``join-combos``) and left the 4-node
        ``serve-shared`` flat; a registry must appear only when its node
        first stores a cache.
        """
        runtime = RedoopRuntime(Cluster(ClusterConfig()))
        runtime.register_query(make_query(), {"S1": RATE})
        assert runtime.registries() == {}
        feed(runtime, 40.0)
        runtime.run_recurrence("wc", 1)
        hosts = {
            node_id
            for signature in runtime.controller.signatures()
            for node_id in signature.placements.values()
        }
        assert hosts and set(runtime.registries()) == hosts
        assert len(hosts) < runtime.cluster.config.num_nodes

    def test_no_caching_mode_reprocesses_everything(self):
        def total_mapped(enable):
            cluster = Cluster(small_test_config(), seed=3)
            runtime = RedoopRuntime(cluster, enable_caching=enable)
            runtime.register_query(make_query(), {"S1": RATE})
            feed(runtime, 60.0)
            results = [runtime.run_recurrence("wc") for _ in range(3)]
            return (
                sum(r.counters.get("map.input_bytes") for r in results),
                [dict(r.output) for r in results],
            )

        cached_bytes, cached_out = total_mapped(True)
        uncached_bytes, uncached_out = total_mapped(False)
        assert uncached_out == cached_out  # same answers
        assert uncached_bytes > cached_bytes  # more I/O without caching

    def test_no_caching_leaves_no_cache_entries(self):
        cluster = Cluster(small_test_config(), seed=3)
        runtime = RedoopRuntime(cluster, enable_caching=False)
        runtime.register_query(make_query(), {"S1": RATE})
        feed(runtime, 40.0)
        runtime.run_recurrence("wc", 1)
        assert all(
            not r.live_entries() for r in runtime.registries().values()
        )

    def test_output_cache_disabled_rebuilds_from_input_cache(self):
        cluster = Cluster(small_test_config(), seed=3)
        runtime = RedoopRuntime(cluster, enable_output_cache=False)
        runtime.register_query(make_query(), {"S1": RATE})
        records = feed(runtime, 50.0)
        runtime.run_recurrence("wc", 1)
        r2 = runtime.run_recurrence("wc", 2)
        assert r2.counters.get("cache.rin_rebuilds") > 0
        start, end = r2.window_bounds["S1"]
        expected = PyCounter(r.value for r in records if start <= r.ts < end)
        assert dict(r2.output) == dict(expected)

    def test_expired_caches_purged_eventually(self):
        runtime = make_runtime()
        feed(runtime, 100.0)
        for k in range(1, 7):
            runtime.run_recurrence("wc", k)
        # Pane 0 left the window after recurrence 2 and must be gone.
        held = [
            e.pid
            for r in runtime.registries().values()
            for e in r.live_entries()
        ]
        assert "wc:S1P0" not in held
        assert runtime.counters.get("cache.entries_purged") > 0


class TestResponseTimes:
    def test_subsequent_windows_faster(self):
        runtime = make_runtime()
        feed(runtime, 70.0)
        r1 = runtime.run_recurrence("wc", 1)
        r2 = runtime.run_recurrence("wc", 2)
        r3 = runtime.run_recurrence("wc", 3)
        assert r2.response_time < r1.response_time
        assert r3.response_time < r1.response_time

    def test_phase_times_non_negative(self):
        runtime = make_runtime()
        feed(runtime, 40.0)
        r = runtime.run_recurrence("wc", 1)
        assert r.phase_times.map >= 0
        assert r.phase_times.shuffle >= 0
        assert r.phase_times.reduce >= 0

    def test_clock_advances(self):
        runtime = make_runtime()
        feed(runtime, 40.0)
        r = runtime.run_recurrence("wc", 1)
        assert runtime.cluster.clock.now == r.finish_time
        assert r.due_time == 40.0
        assert r.start_time >= r.due_time


class TestJoinRuntime:
    def _join_query(self, num_reducers=4, name="join"):
        from repro.hadoop import MapReduceJob

        def mapper(record):
            yield record.value["k"], (record.value["side"], record.value["v"])

        def reducer(key, values):
            left = [v for s, v in values if s == "L"]
            right = [v for s, v in values if s == "R"]
            for a in left:
                for b in right:
                    yield key, (a, b)

        job = MapReduceJob(
            name=name,
            mapper=mapper,
            reducer=reducer,
            num_reducers=num_reducers,
        )
        spec = WindowSpec(win=20.0, slide=10.0)
        return RecurringQuery(
            name=name, job=job, windows={"L": spec, "R": spec}
        )

    def _join_batch(self, source, side, i, t0, t1, n=6):
        records = [
            Record(
                ts=t0 + j * (t1 - t0) / n,
                value={"k": j % 3, "side": side, "v": f"{side}{i}.{j}"},
                size=100,
            )
            for j in range(n)
        ]
        return (
            BatchFile(
                path=f"/b/{source}/{i}", source=source, t_start=t0, t_end=t1
            ),
            records,
        )

    def _setup(self, name="join", windows=3, **kwargs):
        cluster = Cluster(small_test_config(), seed=3)
        runtime = RedoopRuntime(cluster, **kwargs)
        query = self._join_query(name=name)
        runtime.register_query(query, {"L": RATE, "R": RATE})
        all_records = {"L": [], "R": []}
        for i in range(windows + 1):
            t0 = 10.0 * i
            for source, side in (("L", "L"), ("R", "R")):
                b, records = self._join_batch(source, side, i, t0, t0 + 10.0)
                runtime.ingest(b, records)
                all_records[source].extend(records)
        return runtime, all_records

    def _expected(self, all_records, start, end):
        out = []
        by_key = {}
        for source in ("L", "R"):
            for r in all_records[source]:
                if start <= r.ts < end:
                    by_key.setdefault(r.value["k"], {"L": [], "R": []})[
                        source
                    ].append(r.value["v"])
        for k, sides in by_key.items():
            for a in sides["L"]:
                for b in sides["R"]:
                    out.append((k, (a, b)))
        return sorted(map(repr, out))

    def test_join_window_output_correct(self):
        runtime, all_records = self._setup()
        for k in (1, 2, 3):
            result = runtime.run_recurrence("join", k)
            start, end = result.window_bounds["L"]
            assert sorted(map(repr, result.output)) == self._expected(
                all_records, start, end
            )

    def test_join_pair_outputs_cached(self):
        runtime, _ = self._setup()
        r1 = runtime.run_recurrence("join", 1)
        r2 = runtime.run_recurrence("join", 2)
        # Window 2 recomputes only combinations involving the new panes.
        assert r2.counters.get("join.combos_computed") < r1.counters.get(
            "join.combos_computed"
        ) + 4  # 2x2 window: 3 new pairs vs 4 initially
        assert r2.counters.get("cache.rout_hits") > 0

    def test_join_status_matrix_marked(self):
        runtime, _ = self._setup()
        runtime.run_recurrence("join", 1)
        matrix = runtime.controller.matrix("join")
        assert matrix.is_done({"join:L": 0, "join:R": 1})
        assert matrix.is_done({"join:L": 1, "join:R": 0})

    @pytest.mark.parametrize("name", ["join", "xjoin"])
    def test_expired_pair_outputs_purged(self, name):
        """Pair pids join pane ids with "x"; a job name holding one must
        not hide the pairs from the purge notices of their panes."""
        runtime, _ = self._setup(name=name, windows=5)
        for k in range(1, 6):
            runtime.run_recurrence(name, k)
        held = {
            e.pid
            for r in runtime.registries().values()
            for e in r.live_entries()
        }
        assert f"{name}:LP0x{name}:RP1" not in held  # pane 0 left after window 1
        assert f"{name}:LP4x{name}:RP5" in held

    def test_reduce_input_runs_hashed_once_per_recurrence(self, monkeypatch):
        """The probe or the write hashes each run; later reads reuse it."""
        from repro.core import cache_registry

        runtime, _ = self._setup()
        checksum = cache_registry.payload_checksum
        hashed = []  # holds the payloads, so their ids stay unique

        def counting(payload):
            hashed.append(payload)
            return checksum(payload)

        monkeypatch.setattr(cache_registry, "payload_checksum", counting)
        for k in (1, 2, 3):
            hashed.clear()
            runtime.run_recurrence("join", k)
            runs = {
                id(registry.node.read_local(e.local_name).payload)
                for registry in runtime.registries().values()
                for e in registry.live_entries()
                if e.cache_type == REDUCE_INPUT
            }
            per_run = PyCounter(id(p) for p in hashed if id(p) in runs)
            assert per_run, f"window {k} hashed no reduce-input run"
            assert max(per_run.values()) == 1, f"window {k}: {per_run}"

    def test_discarded_reduce_input_is_read_again(self, monkeypatch):
        """A run discarded mid-recurrence leaves the verified set, so its
        next use misses and falls back to the spilled run, as before."""
        pid = "join:LP1"
        twin, all_records = self._setup()
        runtime, _ = self._setup()
        combine = runtime._combine_join

        def combine_after_discard(state, recurrence, t0, counters):
            if recurrence == 2:
                lf = runtime._verified_rins[pid][0]  # the probe verified it
                node_id = runtime.controller.placement(pid, REDUCE_INPUT, 0)
                runtime.discard_cache(
                    node_id, pid, REDUCE_INPUT, 0, drop_tasks=False
                )
                assert 0 not in runtime._verified_rins[pid]
                runtime.cluster.node(node_id).store_local(
                    f"tmp/join/{pid}/p0", lf.size, list(lf.payload)
                )
            return combine(state, recurrence, t0, counters)

        monkeypatch.setattr(runtime, "_combine_join", combine_after_discard)
        for k in (1, 2):
            twin.run_recurrence("join", k)
            result = runtime.run_recurrence("join", k)
        start, end = result.window_bounds["L"]
        assert sorted(map(repr, result.output)) == self._expected(
            all_records, start, end
        )
        # Exactly one read of the run (pair L1 x R2) missed instead of hit.
        for name, delta in (("cache.misses", 1), ("cache.hits", -1)):
            assert runtime.counters.get(name) == twin.counters.get(name) + delta


class TestPidsWithAnX:
    """Job and source names may contain "x", the combination separator."""

    PID = "ffg-extrema:positionsP1"

    def _after_one_window(self):
        from repro.workloads.queries import extrema_query

        query = extrema_query(20.0, 10.0, num_reducers=4)
        runtime = RedoopRuntime(Cluster(small_test_config(), seed=3))
        runtime.register_query(query, {"positions": RATE})
        for i, t0 in enumerate((0.0, 10.0)):
            records = [
                Record(
                    ts=t0 + j,
                    value={"player": j % 3, "speed": float(10 * i + j)},
                    size=100,
                )
                for j in range(10)
            ]
            runtime.ingest(
                BatchFile(
                    path=f"/b/positions/{i}",
                    source="positions",
                    t_start=t0,
                    t_end=t0 + 10.0,
                ),
                records,
            )
        runtime.run_recurrence(query.name, 1)
        return runtime, query

    def test_query_not_done_with_its_live_pane(self):
        runtime, query = self._after_one_window()
        assert query.name == "ffg-extrema"  # the library's default name
        for cache_type in (REDUCE_INPUT, REDUCE_OUTPUT):
            signature = runtime.controller.signature(self.PID, cache_type)
            assert signature.done_query_mask == {query.name: False}
        # Window 2 still has to reduce its new pane.
        assert runtime.controller.remaining_uses("ffg-extrema:positionsP2") == 1

    def test_lost_pane_drops_queued_reduce_tasks(self):
        from repro.core import ReduceTaskRequest

        runtime, query = self._after_one_window()
        request = ReduceTaskRequest(
            query=query.name,
            panes=(("ffg-extrema:positions", 1),),
            partition=0,
            input_bytes=1,
        )
        runtime.scheduler.enqueue_reduce(request)
        assert runtime.scheduler.drop_reduce_tasks_using(self.PID) == [request]
