"""The operator table: one dispatch, identical through every consumer."""

from dataclasses import replace

import pytest

from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.core.integrated import IntegratedJoin
from repro.core.join import TextJoinSpec
from repro.core.operators import OPERATORS, operator
from repro.core.optimizer import PlanCost, execute_plan
from repro.core.shards import iter_shard, shard_specs
from repro.cost.communication import ExecutionSite
from repro.cost.model import CostModel
from repro.cost.params import QueryParams, SystemParams
from repro.errors import JoinError
from repro.exec.stream import collect
from repro.sql.catalog import Catalog, Relation
from repro.sql.executor import execute
from repro.workloads.synthetic import SyntheticSpec, generate_collection

SPEC = TextJoinSpec(lam=3)
SYSTEM = SystemParams(buffer_pages=64, page_bytes=512)
INNER_IDS = (1, 4, 5, 9, 17, 30)


@pytest.fixture(scope="module")
def collections():
    return (
        generate_collection(
            SyntheticSpec("op1", n_documents=40, avg_terms_per_doc=8,
                          vocabulary_size=120, seed=31)
        ),
        generate_collection(
            SyntheticSpec("op2", n_documents=30, avg_terms_per_doc=8,
                          vocabulary_size=120, seed=32)
        ),
    )


@pytest.fixture(scope="module")
def factory(collections):
    return EnvironmentFactory(*collections, EnvironmentSpec(page_bytes=512))


def test_every_name_the_cost_model_reports_has_an_operator(factory):
    side1, side2 = factory.create().cost_sides()
    report = CostModel(side1, side2, SYSTEM, QueryParams(lam=3)).report(
        include_backward=True
    )
    assert set(report.costs) == set(OPERATORS)
    for name in report.costs:
        assert operator(name).shard_axis in ("inner", "outer")


def test_unknown_name_is_a_join_error():
    with pytest.raises(JoinError, match="SORT-MERGE"):
        operator("SORT-MERGE")


def fingerprint(result, *, added=()):
    """Everything a consumer must not change: matches (values and
    order), per-extent I/O, and the operator's own extras."""
    extras = {k: v for k, v in result.extras.items() if k not in added}
    return (
        result.algorithm,
        list(result.matches.items()),
        dict(result.io.by_extent),
        extras,
    )


@pytest.mark.parametrize(
    "name,inner_ids",
    [
        ("HHNL", None),
        ("HHNL", INNER_IDS),
        ("HHNL-BWD", None),
        ("HHNL-BWD", INNER_IDS),
        ("HVNL", None),
        ("HVNL", INNER_IDS),
        ("VVM", None),
        ("VVM", INNER_IDS),
    ],
)
def test_every_consumer_runs_the_table_entry(factory, name, inner_ids):
    direct = collect(
        OPERATORS[name].stream(factory.create(), SPEC, SYSTEM, inner_ids=inner_ids)
    )
    expected = fingerprint(direct)
    # an inner selection turns the backward order into the forward one
    assert direct.algorithm == (
        "HHNL" if (name, inner_ids) == ("HHNL-BWD", INNER_IDS) else name
    )

    joiner = IntegratedJoin(factory.create(), SYSTEM, consider_backward=True)
    decision = replace(joiner.decide(SPEC, None, inner_ids), chosen=name)
    integrated = collect(
        joiner.stream(SPEC, inner_ids=inner_ids, decision=decision)
    )
    assert integrated.extras["decision"] is decision
    assert fingerprint(integrated, added=("decision", "estimated_cost")) == expected

    (shard,) = shard_specs(name, factory, 1, inner_ids=inner_ids)
    sharded = collect(
        iter_shard(
            name, factory.create(), SPEC, SYSTEM, shard, inner_ids=inner_ids
        )
    )
    assert fingerprint(sharded) == expected

    if inner_ids is None:  # execute_plan takes no inner selection
        plan = PlanCost(name, ExecutionSite.SITE1, 0, 0, 0)
        planned = execute_plan(plan, factory.create(), SPEC, SYSTEM)
        assert planned.extras["plan"] is plan
        assert fingerprint(planned, added=("plan",)) == expected


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("suffix", ["", " LIMIT 7"])
def test_sharded_sql_differs_only_by_the_sharding_entry(collections, shards, suffix):
    inner, outer = collections
    catalog = Catalog()
    catalog.register(
        Relation.from_rows(
            "R1", [{"Id": i} for i in range(inner.n_documents)]
        ).bind_text("Doc", inner)
    )
    catalog.register(
        Relation.from_rows(
            "R2", [{"Id": i} for i in range(outer.n_documents)]
        ).bind_text("Doc", outer)
    )
    query = (
        "SELECT R2.Id, R1.Id FROM R1, R2 "
        "WHERE R1.Doc SIMILAR_TO(3) R2.Doc" + suffix
    )
    sequential = execute(query, catalog, SYSTEM)
    sharded = execute(query, catalog, SYSTEM, shards=shards)
    assert set(sharded.extras) - {"sharding"} == set(sequential.extras)
    assert sharded.rows == sequential.rows
    assert sharded.extras["truncated"] == sequential.extras["truncated"]
    assert sharded.extras["blocks_emitted"] >= sequential.extras["blocks_emitted"]
    if shards == 1 and not suffix:
        assert sharded.extras["pages_read"] == sequential.extras["pages_read"]
