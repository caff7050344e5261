"""Structural consistency checks across the metadata layers.

Redoop keeps four views of the same cache state: the master-side
controller (ready bits + placement signatures), the per-node local
registries, the scheduler's task lists, and the node-local files that
actually hold the bytes. Recovery is correct only when every fault
leaves these views mutually consistent — a placement pointing at a dead
node, or a ready bit claiming ``CACHE_AVAILABLE`` with no backing
entry, is exactly the kind of drift that turns into a silently wrong
window three recurrences later.

:func:`check_invariants` is run by the chaos driver after every
injected event and after every recurrence. It returns human-readable
violation strings (empty list = consistent) rather than raising, so a
sweep can collect everything that is wrong at once.

One asymmetry is deliberate: a *registry* entry whose pane's controller
placement points at a different node is **not** a violation. When a
cache is rebuilt after a node failure the placement moves to the new
host, and the paper's lazy purge protocol leaves the stale replica on
the old node until its pane expires. The controller is authoritative;
orphans are garbage, not corruption.
"""

from __future__ import annotations

from typing import List

from ..core.cache_controller import CACHE_AVAILABLE, HDFS_AVAILABLE

__all__ = ["check_invariants"]


def check_invariants(runtime) -> List[str]:
    """Cross-check controller, registries, scheduler, and local files.

    Parameters
    ----------
    runtime:
        A :class:`~repro.core.runtime.RedoopRuntime`, quiescent (between
        recurrences / injections — task lists are expected empty).

    Returns
    -------
    list of str
        One line per violation; empty when every layer agrees.
    """
    violations: List[str] = []
    controller = runtime.controller
    registries = runtime.registries()
    cluster = runtime.cluster

    # 1. Every controller placement is backed end-to-end: live node,
    #    registry entry, node-local file. Caches whose every done-mask
    #    bit is set are exempt: purge notifications have gone out, the
    #    nodes have (lazily) dropped the bytes, and the signature is
    #    just awaiting garbage collection.
    for signature in controller.signatures():
        if signature.all_done():
            continue
        for partition, node_id in sorted(signature.placements.items()):
            where = (
                f"placement {signature.pid}/type{signature.cache_type}"
                f"/part{partition} -> node {node_id}"
            )
            node = cluster.node(node_id)
            if not node.alive:
                violations.append(f"{where}: node is dead")
                continue
            registry = registries.get(node_id)
            if registry is None or not registry.has(
                signature.pid, signature.cache_type, partition
            ):
                violations.append(f"{where}: no live registry entry")

    # 2. A CACHE_AVAILABLE ready bit needs at least one placed cache.
    placed_pids = {
        s.pid for s in controller.signatures() if s.placements
    }
    for pid, ready in controller.ready_states():
        if ready == CACHE_AVAILABLE and pid not in placed_pids:
            violations.append(
                f"ready bit: {pid} is CACHE_AVAILABLE but no cache is placed"
            )

    # 3. Map-eligible panes are exactly the HDFS_AVAILABLE ones the
    #    runtime still has work for; eligibility with the wrong ready
    #    bit means the rollback listeners misfired.
    ready_of = dict(controller.ready_states())
    for pid in sorted(runtime.map_eligible()):
        ready = ready_of.get(pid)
        if ready != HDFS_AVAILABLE:
            violations.append(
                f"map-eligible {pid} has ready bit {ready!r}, "
                f"expected HDFS_AVAILABLE"
            )

    # 4. Recurrences are atomic: between events the scheduler's task
    #    lists must be drained (a leftover request would leak into the
    #    next recurrence's Algorithm 2 pass).
    sched = runtime.scheduler
    if sched.map_task_list:
        violations.append(
            f"scheduler mapTaskList holds {len(sched.map_task_list)} "
            f"request(s) between recurrences"
        )
    if sched.reduce_task_list:
        violations.append(
            f"scheduler reduceTaskList holds {len(sched.reduce_task_list)} "
            f"request(s) between recurrences"
        )

    # 5. Live registry entries are backed by node-local files.
    for node_id, registry in sorted(registries.items()):
        if not registry.node.alive:
            # 6. A dead node's registry must be empty (fail_node
            #    forgets everything; resurrecting stale entries on
            #    recovery would serve pre-failure bytes).
            leftover = registry.live_entries()
            if leftover:
                violations.append(
                    f"dead node {node_id} registry still lists "
                    f"{len(leftover)} entr(ies)"
                )
            continue
        for entry in registry.live_entries():
            if not registry.node.has_local(entry.local_name):
                violations.append(
                    f"node {node_id} registry lists {entry.local_name} "
                    f"but the file is gone"
                )

    # 7. Budget: a bounded registry never holds more cached bytes than
    #    its capacity — admission control and eviction must keep every
    #    node at or under budget at every step, not just eventually.
    for node_id, registry in sorted(registries.items()):
        cap = registry.capacity_bytes
        if cap is None or not registry.node.alive:
            continue
        held = registry.cached_bytes
        if held > cap:
            violations.append(
                f"node {node_id} holds {held} cached bytes over its "
                f"budget of {cap}"
            )

    # 8. Cross-query reuse store: every manifest entry's backing files
    #    exist in HDFS (a dangling manifest row would fail every read
    #    and silently disable the tier), and the store's accounted
    #    bytes respect its own budget.
    store = getattr(runtime, "reuse", None)
    if store is not None and store.hdfs is not None:
        for entry in store.entries():
            for path in entry.paths():
                if not store.hdfs.exists(path):
                    violations.append(
                        f"reuse entry {entry.key} references missing "
                        f"HDFS file {path}"
                    )
        cap = store.capacity_bytes
        if cap is not None and store.total_bytes > cap:
            violations.append(
                f"reuse store holds {store.total_bytes} bytes over its "
                f"budget of {cap}"
            )

    # 9. Real worker-fault supervision: the execution backend never
    #    parks on a broken process pool between batches — the
    #    supervisor either rebuilt it or raised into the degraded-
    #    window path. A lingering broken pool would turn the *next*
    #    batch into an unsupervised crash.
    probe = getattr(getattr(runtime, "backend", None), "pool_healthy", None)
    if probe is not None and not probe():
        violations.append(
            "execution backend left a broken process pool behind"
        )

    # 10. Byte accounting: a live node's running ``cached_bytes`` equals
    #     the summed size of its entries (expired ones included) whose
    #     files exist. Drift here would let admission control and
    #     invariant 7 judge the budget against the wrong number.
    for node_id, registry in sorted(registries.items()):
        if not registry.node.alive:
            continue
        backed = sum(
            e.size
            for e in registry.entries()
            if registry.node.has_local(e.local_name)
        )
        if registry.cached_bytes != backed:
            violations.append(
                f"node {node_id} registry counts {registry.cached_bytes} "
                f"cached bytes but its files hold {backed}"
            )

    return violations
