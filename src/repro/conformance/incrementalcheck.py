"""The ``incremental-equivalence`` axis: delta segments change nothing."""

from __future__ import annotations

import random
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import Any, Iterator, Mapping

from repro.conformance.equivalence import (
    AGREE, IGNORE, Case, Drawn, Variant, execute, result_mismatch, same_matches,
)
from repro.conformance.kernelcheck import RERUN_SHARDS, kernel_variants
from repro.conformance.parallelcheck import sharded_run
from repro.conformance.trials import (
    ExecutorFn, TrialConfig, random_selection, random_trial_config,
)
from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.core.join import JoinEnvironment
from repro.index.codecs import CODEC_NAMES
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.workspace.builder import build_workspace
from repro.workspace.loader import load_workspace, verify_workspace
from repro.workspace.mutate import MutationBatch, apply_mutations, compact, freeze_delta
from repro.workspace.segments import HeldSnapshot


#: one oracle document: d-cells in the stored representation
_Cells = tuple[tuple[int, int], ...]


def _random_operations(
    rng: random.Random,
    docs: dict[str, list[_Cells]],
    roles: tuple[str, ...],
    vocabulary: int,
) -> list[dict[str, Any]]:
    """Draw a mutation/freeze/compact sequence and apply it to the oracle.

    ``docs`` becomes the final live documents under the contract of
    :func:`~repro.workspace.mutate.apply_mutations`: deletes name pre-batch
    live ids, survivors keep merged order, inserts append at the tail.
    """
    operations: list[dict[str, Any]] = []
    for position in range(rng.randint(2, 4)):
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
        for role, dead in deletes.items():
            docs[role] = [c for i, c in enumerate(docs[role]) if i not in dead]
        for role, terms in inserts.items():
            docs[role].extend(Document.from_terms(0, t).cells for t in terms)
        operations.append({"op": "mutate", "inserts": inserts, "deletes": deletes})
    return operations


def _replay_operations(
    directory: str, operations: list[dict[str, Any]], held: HeldSnapshot
) -> None:
    """Apply a drawn operation sequence to the workspace on disk, the way a
    resident reader holding ``held`` sees it: mutations reuse it, and a
    reuse-path load follows every step, freezes and compactions included."""
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
    config: TrialConfig, sides: Mapping[str, DocumentCollection],
    docs: Mapping[str, list[_Cells]], codec: str,
) -> JoinEnvironment:
    """A fresh in-memory environment over the oracle's live documents,
    under the original collection names so the extent names line up."""
    cold = {
        role: DocumentCollection(
            sides[role].name, [Document(i, cells) for i, cells in enumerate(docs[role])]
        )
        for role in docs
    }
    return JoinEnvironment(
        cold["c1"], cold.get("c2", cold["c1"]), PageGeometry(config.page_bytes),
        codec=codec,
    )


def _pinned(
    executor: ExecutorFn, config: TrialConfig, factory: EnvironmentFactory, kernel: str
) -> Any:
    """Run ``executor`` over ``factory`` with ``kernel`` pinned on it."""
    factory.kernel = kernel
    try:
        return executor(factory.create(), config)
    finally:
        factory.kernel = "auto"


def _verified(_: Any, problems: list[str]) -> str | None:
    """The first problem :func:`verify_workspace` reports, if any."""
    return f"mutated workspace fails verification: {problems[0]}" if problems else None


class IncrementalAxis:
    """Mutated workspaces equal their cold rebuilds exactly.

    A workspace grown through random insert/delete batches, freezes and
    compactions must equal a cold build of its final live documents,
    which an oracle tracks cell by cell.  On top of an agreeing load: the
    snapshot a resident reader holds, then each kernel backend and sharded
    runs whose workers warm-load the directory (matches only).
    """

    @contextmanager
    def trial(
        self, rng: random.Random, trial: int, executors: Mapping[str, ExecutorFn]
    ) -> Iterator[Drawn]:
        """Mutate one workspace; each executor's cold run against it."""
        config = random_trial_config(rng, trial)
        c1, c2 = config.build_collections()
        sides = {"c1": c1} if config.self_join else {"c1": c1, "c2": c2}
        docs = {role: [doc.cells for doc in side] for role, side in sides.items()}
        operations = _random_operations(
            rng, docs, tuple(sides), config.spec1.vocabulary_size
        )
        codec = CODEC_NAMES[trial % len(CODEC_NAMES)]
        reproduction = {"base": config.reproduction(), "codec": codec,
                        "operations": operations}
        # selections must name the *final* live documents: redraw them
        n_outer, n_inner = len(docs.get("c2", docs["c1"])), len(docs["c1"])
        config = replace(config, outer_selection=random_selection(rng, n_outer, 0.25),
                         inner_selection=random_selection(rng, n_inner, 0.2))
        with tempfile.TemporaryDirectory(prefix="repro-inc-") as tmp:
            build_workspace(
                tmp, c1, sides.get("c2"),
                spec=EnvironmentSpec(page_bytes=config.page_bytes, codec=codec),
            )
            held = HeldSnapshot()
            _replay_operations(tmp, operations, held)
            factory = load_workspace(tmp)
            resident = load_workspace(tmp, held)

            def case(name: str, executor: ExecutorFn) -> Case:
                reruns = (
                    *kernel_variants(
                        partial(_pinned, executor, config, factory), IGNORE
                    ),
                    *(Variant(f"shards={shards}",
                              partial(sharded_run, name, config, None, shards, tmp),
                              same_matches, IGNORE)
                      for shards in RERUN_SHARDS),
                )
                on_resident = Variant(
                    "held snapshot",
                    partial(execute, executor, config, resident.create),
                    result_mismatch, then=reruns,
                )
                cold = partial(_cold_environment, config, sides, docs, codec)
                return Case(name, partial(execute, executor, config, cold), (
                    Variant("incremental",
                            partial(execute, executor, config, factory.create),
                            result_mismatch, AGREE, (on_resident,)),
                ))

            # the segment layer must stand on its own: no problems is the base
            verify = Variant("verify", partial(verify_workspace, tmp), _verified)
            yield reproduction, [
                Case("verify_workspace", list, (verify,)),
                *(case(name, executor) for name, executor in executors.items()),
            ]


__all__ = ["IncrementalAxis"]
