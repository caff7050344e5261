"""Checkpoint framing, validation errors, and spec/factory round-trips."""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import sys

import pytest

from repro.core import RecurringQuery
from repro.service import (
    CheckpointError,
    QuerySpec,
    build_query,
    load_checkpoint,
    resolve_factory,
    save_checkpoint,
)
from repro.service.checkpoint import MAGIC, SCHEMA_VERSION, _external

FACTORY = "tests.service.factories:wordcount_query"


def make_spec(name="q1", win=40.0, slide=10.0, **extra):
    kwargs = {"win": win, "slide": slide, "name": name}
    kwargs.update(extra)
    return QuerySpec(name=name, factory=FACTORY, kwargs=kwargs, rates={"S1": 1000.0})


class TestSpecs:
    def test_factory_must_have_colon(self):
        with pytest.raises(ValueError, match="module:callable"):
            QuerySpec(name="q", factory="not.a.path")

    def test_resolve_unknown_module(self):
        with pytest.raises(ValueError, match="cannot import"):
            resolve_factory("no.such.module:thing")

    def test_resolve_unknown_attribute(self):
        with pytest.raises(ValueError, match="no attribute"):
            resolve_factory("tests.service.factories:nope")

    def test_build_query_runs_factory(self):
        query = build_query(make_spec())
        assert isinstance(query, RecurringQuery)
        assert query.name == "q1"
        assert query.spec("S1").win == 40.0

    def test_build_query_name_mismatch_rejected(self):
        spec = QuerySpec(
            name="alias",
            factory=FACTORY,
            kwargs={"win": 40.0, "slide": 10.0, "name": "other"},
        )
        with pytest.raises(ValueError, match="must match"):
            build_query(spec)


class TestRoundTrip:
    def test_graph_round_trips_with_rebuilt_queries(self, tmp_path):
        spec_a, spec_b = make_spec("qa"), make_spec("qb", job_name="shared")
        qa, qb = build_query(spec_a), build_query(spec_b)
        graph = {"queries": {"qa": qa, "qb": qb}, "cursor": 17}
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={"qa": spec_a, "qb": spec_b},
            queries={"qa": qa, "qb": qb},
            graph=graph,
        )
        restored = load_checkpoint(path)
        assert restored["cursor"] == 17
        rqa = restored["queries"]["qa"]
        # The query was rebuilt by the factory, not unpickled.
        assert rqa is not qa
        assert rqa.name == "qa"
        assert rqa.spec("S1").win == qa.spec("S1").win
        # Its map function is live code again.
        from repro.hadoop import Record

        assert list(rqa.job.mapper(Record(ts=0.0, value="x"))) == [("x", 1)]

    def test_shared_job_objects_stay_shared(self, tmp_path):
        spec_a = make_spec("qa", job_name="wc-shared")
        spec_b = make_spec("qb", win=20.0, job_name="wc-shared")
        qa, qb = build_query(spec_a), build_query(spec_b)
        graph = [qa, qb]
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={"qa": spec_a, "qb": spec_b},
            queries={"qa": qa, "qb": qb},
            graph=graph,
        )
        ra, rb = load_checkpoint(path)
        # Restore canonicalises jobs by name: one shared object.
        assert ra.job is rb.job


class TestValidation:
    def _write(self, tmp_path, mutate):
        spec = make_spec()
        query = build_query(spec)
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={"q1": spec},
            queries={"q1": query},
            graph={"q": query},
        )
        data = bytearray(path.read_bytes())
        mutate(data)
        path.write_bytes(bytes(data))
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path, lambda d: d.__setitem__(0, ord("X")))
        with pytest.raises(CheckpointError, match="not a service checkpoint"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = self._write(tmp_path, lambda d: d.__delitem__(slice(-40, None)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corruption_fails_digest(self, tmp_path):
        def flip_last(d):
            d[-1] ^= 0xFF

        path = self._write(tmp_path, flip_last)
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = self._write(tmp_path, lambda d: None)
        data = path.read_bytes()
        rest = data[len(MAGIC):]
        newline = rest.find(b"\n")
        header = json.loads(rest[:newline])
        assert header["schema_version"] == SCHEMA_VERSION
        header["schema_version"] = SCHEMA_VERSION + 99
        path.write_bytes(
            MAGIC
            + json.dumps(header, sort_keys=True).encode()
            + b"\n"
            + rest[newline + 1:]
        )
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.bin")

    def test_unsnapshottable_graph_rejected(self, tmp_path):
        spec = make_spec()
        query = build_query(spec)
        with pytest.raises(CheckpointError, match="not snapshottable"):
            save_checkpoint(
                tmp_path / "ck.bin",
                specs={"q1": spec},
                queries={"q1": query},
                graph={"bad": lambda: None},  # a stray closure
            )


    def test_reference_to_unknown_query_rejected(self, tmp_path):
        # The state section names a query the spec section never built.
        query = build_query(make_spec())
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={},
            queries={"q1": query},
            graph={"q": query},
        )
        with pytest.raises(CheckpointError, match="internally inconsistent"):
            load_checkpoint(path)

    def test_reference_resolves_only_inside_a_restore(self):
        with pytest.raises(CheckpointError, match="only inside load_checkpoint"):
            _external("query", "q1")


class _GcProbe:
    """Notes whether the collector was running when it was unpickled."""

    def __init__(self):
        self.collecting = None

    def __setstate__(self, state):
        self.__dict__.update(state, collecting=gc.isenabled())


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """Run the test with the collector on or off, restoring it after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _write_with_state(path, state: bytes):
    """Frame an empty spec section plus ``state`` as a valid checkpoint."""
    payload = pickle.dumps({}) + state
    header = {
        "schema_version": SCHEMA_VERSION,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    path.write_bytes(
        MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    )
    return path


class TestSaveAndLoadCost:
    @staticmethod
    def _python_calls_to_save(path, rows: int) -> int:
        spec = make_spec()
        query = build_query(spec)
        graph = {"q": query, "rows": [(i, str(i), float(i)) for i in range(rows)]}
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            save_checkpoint(path, specs={"q1": spec}, queries={"q1": query}, graph=graph)
        finally:
            sys.setprofile(None)
        return calls

    def test_save_makes_no_python_call_per_plain_object(self, tmp_path):
        # Ints, strings, floats and tuples must pickle in C: the Python
        # calls a save makes do not grow with how many of them it holds.
        self._python_calls_to_save(tmp_path / "warm.bin", 10)
        small = self._python_calls_to_save(tmp_path / "small.bin", 100)
        large = self._python_calls_to_save(tmp_path / "large.bin", 1000)
        assert abs(large - small) <= 5, (small, large)

    def test_load_pauses_and_restores_the_collector(self, tmp_path, collecting):
        spec = make_spec()
        query = build_query(spec)
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={"q1": spec},
            queries={"q1": query},
            graph={"q": query, "probe": _GcProbe()},
        )
        restored = load_checkpoint(path)
        assert gc.isenabled() is collecting
        assert restored["probe"].collecting is False

    def test_failed_load_restores_the_collector(self, tmp_path, collecting):
        path = _write_with_state(tmp_path / "ck.bin", pickle.dumps([1, 2, 3])[:-3])
        with pytest.raises(CheckpointError, match="state section does not unpickle"):
            load_checkpoint(path)
        assert gc.isenabled() is collecting


class TestFaultStateRoundTrip:
    def test_injector_rng_survives_checkpoint(self, tmp_path):
        """A mid-stream FaultInjector resumes its RNG exactly.

        Chaos runs checkpoint alongside the tenant graph; on restore the
        injector must continue the identical random sequence, or a
        replayed schedule would diverge from the original run.
        """
        from repro.hadoop import FaultInjector

        spec = make_spec()
        query = build_query(spec)
        injector = FaultInjector(
            task_failure_prob=0.1, cache_loss_fraction=0.5, seed=13
        )
        injector.doom("/w4/")
        # Warm the RNG so the saved state is mid-stream, not initial.
        for i in range(5):
            injector.attempt_duration(f"q1/map/p{i}#0", 10.0)
        caches = [f"cache-{i}" for i in range(12)]
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={"q1": spec},
            queries={"q1": query},
            graph={"queries": {"q1": query}, "faults": injector},
        )
        restored = load_checkpoint(path)["faults"]
        assert restored is not injector
        assert restored.doomed() == ["/w4/"]
        assert restored.task_failure_prob == 0.1
        # Identical continuation on both sides.
        for i in range(5, 10):
            key = f"q1/map/p{i}#0"
            assert restored.attempt_duration(key, 10.0) == (
                injector.attempt_duration(key, 10.0)
            )
        assert restored.pick_cache_victims(caches) == (
            injector.pick_cache_victims(caches)
        )

    def test_chaos_schedule_round_trips_in_graph(self, tmp_path):
        from repro.chaos import ChaosEvent, ChaosSchedule

        sched = ChaosSchedule(
            seed=5,
            events=(
                ChaosEvent(at=45.0, kind="cache-loss", fraction=0.4),
                ChaosEvent(at=60.0, kind="task-exhaust", doom="/w3/"),
            ),
        )
        spec = make_spec()
        query = build_query(spec)
        path = save_checkpoint(
            tmp_path / "ck.bin",
            specs={"q1": spec},
            queries={"q1": query},
            graph={"queries": {"q1": query}, "schedule": sched, "next": 1},
        )
        restored = load_checkpoint(path)
        assert restored["schedule"] == sched
        assert restored["next"] == 1
