"""Incremental-equivalence conformance: mutations change nothing but data.

The segmented workspace (:mod:`repro.workspace.mutate`) promises that a
workspace grown through an arbitrary interleaving of mutation batches,
delta freezes and compactions is *indistinguishable* from a workspace
built cold from the final live document set: identical matches,
identical similarities, identical per-extent
:class:`~repro.storage.iostats.IOStats` and identical executor extras,
because the merged multi-segment view renumbers and re-derives exactly
what a cold build would.

Each trial draws a random :class:`~repro.conformance.trials.TrialConfig`,
builds its collections into a temporary workspace (trials alternate the
postings codecs), then applies a random operation sequence — insert/delete
batches against live global ids, ``freeze_delta``, ``compact`` — while an
oracle keeps the surviving documents' d-cells in merged order.  The mutated
workspace must agree with a cold in-memory environment built from the oracle:

* **sequentially** per executor, byte-identical down to extras;
* **per kernel backend**, with the backend pinned on the loaded factory;
* **sharded** at the configured shard counts through
  :func:`repro.parallel.runner.run_sharded`'s warm ``workspace=`` path,
  matches-only (shard workers load their own factories from the
  segmented directory);

and :func:`~repro.workspace.loader.verify_workspace` must report a clean
bill after every freeze and compaction.  A **held-snapshot** axis rides
along: the sequence is replayed the way a resident service plays it,
every step handed the segments the previous step ended on, and the
factory that ends on must equal the cold rebuild exactly as well.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace
from typing import Any, Mapping, Sequence

from repro.conformance.differential import (
    DifferentialOutcome,
    Divergence,
    result_mismatch,
)
from repro.conformance.trials import (
    DEFAULT_EXECUTORS,
    ExecutorFn,
    TrialConfig,
    random_trial_config,
)
from repro.core.environment import EnvironmentSpec
from repro.core.join import JoinEnvironment
from repro.errors import InsufficientMemoryError
from repro.index.codecs import CODEC_NAMES
from repro.kernels import numpy_available
from repro.parallel.runner import run_sharded
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.workspace.builder import build_workspace
from repro.workspace.loader import load_workspace, verify_workspace
from repro.workspace.mutate import (
    MutationBatch,
    apply_mutations,
    compact,
    freeze_delta,
)
from repro.workspace.segments import HeldSnapshot

#: shard counts the warm-workspace sharded re-run exercises
INCREMENTAL_SHARD_COUNTS = (1, 4)

#: one oracle document: d-cells in the stored representation
_Cells = tuple[tuple[int, int], ...]


def _candidate_kernels() -> tuple[str, ...]:
    """Non-default backends this interpreter can run."""
    names = ["stdlib"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def _random_operations(
    rng: random.Random,
    docs: dict[str, list[_Cells]],
    roles: tuple[str, ...],
    vocabulary: int,
) -> list[dict[str, Any]]:
    """Draw a mutation/freeze/compact sequence and apply it to the oracle.

    ``docs`` is mutated in place to the final live document set, cell by
    cell, following exactly the contract of
    :func:`~repro.workspace.mutate.apply_mutations`: deletes name
    pre-batch live global ids, survivors keep merged order, inserts
    append at the tail.
    """
    operations: list[dict[str, Any]] = []
    n_ops = rng.randint(2, 4)
    for position in range(n_ops):
        kind = "mutate" if position == 0 else rng.choice(
            ("mutate", "mutate", "freeze", "compact")
        )
        if kind != "mutate":
            operations.append({"op": kind})
            continue
        inserts: dict[str, list[list[int]]] = {}
        deletes: dict[str, list[int]] = {}
        for role in roles:
            live = len(docs[role])
            if rng.random() < 0.8:
                inserts[role] = [
                    [rng.randrange(vocabulary) for _ in range(rng.randint(1, 8))]
                    for _ in range(rng.randint(1, 3))
                ]
            if live > 1 and rng.random() < 0.6:
                deletes[role] = sorted(
                    rng.sample(range(live), rng.randint(1, min(3, live - 1)))
                )
        if not inserts and not deletes:
            inserts = {roles[0]: [[rng.randrange(vocabulary)]]}
        for role, doc_ids in deletes.items():
            dead = set(doc_ids)
            docs[role] = [
                cells for i, cells in enumerate(docs[role]) if i not in dead
            ]
        for role, term_lists in inserts.items():
            docs[role].extend(
                Document.from_terms(0, terms).cells for terms in term_lists
            )
        operations.append({"op": "mutate", "inserts": inserts, "deletes": deletes})
    return operations


def _replay_operations(
    directory: str, operations: list[dict[str, Any]], held: HeldSnapshot
) -> None:
    """Apply a drawn operation sequence to the workspace on disk.

    ``held`` is a resident reader's held snapshot: mutations reuse it and
    a reuse-path load follows every step, freezes and compactions (which
    happen behind its back) included.
    """
    load_workspace(directory, held)
    for operation in operations:
        if operation["op"] == "mutate":
            apply_mutations(
                directory,
                MutationBatch.from_term_lists(
                    inserts=operation["inserts"], deletes=operation["deletes"]
                ),
                held=held,
            )
        elif operation["op"] == "freeze":
            freeze_delta(directory)
        else:
            compact(directory)
        load_workspace(directory, held)


def _cold_environment(
    config: TrialConfig,
    names: dict[str, str],
    docs: Mapping[str, list[_Cells]],
    codec: str,
    kernel: str = "auto",
) -> JoinEnvironment:
    """A fresh in-memory environment over the oracle's live documents.

    Collection names are preserved from the originals so the extent
    names inside the I/O counters line up with the loaded workspace's.
    """
    cold1 = DocumentCollection(
        names["c1"], [Document(i, cells) for i, cells in enumerate(docs["c1"])]
    )
    if config.self_join:
        cold2 = cold1
    else:
        cold2 = DocumentCollection(
            names["c2"],
            [Document(i, cells) for i, cells in enumerate(docs["c2"])],
        )
    return JoinEnvironment(
        cold1, cold2, PageGeometry(config.page_bytes), codec=codec, kernel=kernel
    )


def run_incremental_equivalence(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    kernels: Sequence[str] | None = None,
    shard_counts: Sequence[int] = INCREMENTAL_SHARD_COUNTS,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Prove mutated workspaces equal their cold rebuilds exactly."""
    executors = DEFAULT_EXECUTORS if executors is None else executors
    kernels = _candidate_kernels() if kernels is None else tuple(kernels)
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_trial_config(rng, trial)
        c1, c2 = config.build_collections()
        roles = ("c1",) if config.self_join else ("c1", "c2")
        names = {"c1": c1.name, "c2": c2.name}
        docs: dict[str, list[_Cells]] = {"c1": [doc.cells for doc in c1]}
        if not config.self_join:
            docs["c2"] = [doc.cells for doc in c2]
        operations = _random_operations(
            rng, docs, roles, config.spec1.vocabulary_size
        )
        codec = CODEC_NAMES[trial % len(CODEC_NAMES)]
        reproduction = {
            "base": config.reproduction(),
            "codec": codec,
            "operations": operations,
        }

        def diverge(executor: str, detail: str) -> None:
            outcome.divergences.append(
                Divergence(
                    check="incremental-equivalence",
                    executor=executor,
                    trial=trial,
                    detail=detail,
                    reproduction=reproduction,
                )
            )

        # Selections must reference the *final* live numbering; redraw
        # them over the mutated sizes with the usual probabilities.
        n1 = len(docs["c1"])
        n2 = n1 if config.self_join else len(docs["c2"])
        outer_selection = inner_selection = None
        if n2 > 1 and rng.random() < 0.25:
            outer_selection = tuple(
                sorted(rng.sample(range(n2), rng.randint(1, n2 - 1)))
            )
        if n1 > 1 and rng.random() < 0.2:
            inner_selection = tuple(
                sorted(rng.sample(range(n1), rng.randint(1, n1 - 1)))
            )
        config = replace(
            config,
            outer_selection=outer_selection,
            inner_selection=inner_selection,
        )

        with tempfile.TemporaryDirectory(prefix="repro-inc-") as tmp:
            build_workspace(
                tmp,
                c1,
                None if config.self_join else c2,
                spec=EnvironmentSpec(page_bytes=config.page_bytes, codec=codec),
            )
            held = HeldSnapshot()
            _replay_operations(tmp, operations, held)
            outcome.trials_run += 1

            # The segment layer must stand on its own after the sequence.
            outcome.comparisons += 1
            problems = verify_workspace(tmp)
            if problems:
                diverge(
                    "verify_workspace",
                    f"mutated workspace fails verification: {problems[0]}",
                )

            factory = load_workspace(tmp)
            resident = load_workspace(tmp, held)
            for name, executor in executors.items():
                # Sequential: full byte identity — matches, I/O, extras.
                try:
                    cold = executor(
                        _cold_environment(config, names, docs, codec), config
                    )
                except InsufficientMemoryError:
                    cold = None
                try:
                    incremental = executor(factory.create(), config)
                except InsufficientMemoryError:
                    incremental = None
                if cold is None and incremental is None:
                    outcome.skips[name] = outcome.skips.get(name, 0) + 1
                    continue
                outcome.comparisons += 1
                if cold is None or incremental is None:
                    side = "cold" if cold is None else "incremental"
                    diverge(name, f"insufficient memory on the {side} side only")
                    continue
                detail = result_mismatch(cold, incremental)
                if detail is None:
                    outcome.comparisons += 1
                    detail = result_mismatch(cold, executor(resident.create(), config))
                    detail = detail and f"held snapshot: {detail}"
                if detail is not None:
                    diverge(name, detail)
                    continue

                # Kernel backends: pin each on the loaded factory.
                for kernel in kernels:
                    outcome.comparisons += 1
                    factory.kernel = kernel
                    try:
                        kernel_cold = executor(
                            _cold_environment(config, names, docs, codec, kernel),
                            config,
                        )
                        kernel_incremental = executor(factory.create(), config)
                    except InsufficientMemoryError:
                        continue
                    finally:
                        factory.kernel = "auto"
                    detail = result_mismatch(kernel_cold, kernel_incremental)
                    if detail is not None:
                        diverge(name, f"kernel={kernel}: {detail}")

                # Sharded: each worker warm-loads the segmented directory.
                for shards in shard_counts:
                    outcome.comparisons += 1
                    try:
                        sharded = run_sharded(
                            name,
                            config.join_spec(),
                            config.system(),
                            workspace=tmp,
                            shards=shards,
                            outer_ids=config.outer_selection,
                            inner_ids=config.inner_selection,
                            interference=config.interference,
                            delta=config.delta,
                        )
                    except InsufficientMemoryError:
                        continue  # sharding may shrink working sets; fine
                    if sharded.matches != cold.matches:
                        diverge(
                            name,
                            f"shards={shards}: sharded matches over the "
                            "mutated workspace differ from the cold rebuild",
                        )
        if fail_fast and outcome.divergences:
            break
    return outcome


__all__ = ["INCREMENTAL_SHARD_COUNTS", "run_incremental_equivalence"]
