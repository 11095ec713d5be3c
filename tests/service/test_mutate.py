"""POST /mutate: the service write path and its snapshot semantics."""

from __future__ import annotations

import json
import threading

import pytest

from repro.workloads.synthetic import SyntheticSpec, generate_collection
from repro.workspace import MANIFEST_NAME, build_workspace, load_manifest

JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"


@pytest.fixture()
def mutable_service(tmp_path):
    """A live service over a private workspace this test may mutate."""
    from tests.conftest import ServiceHandle

    from repro.service import JoinService, make_server

    directory = tmp_path / "ws"
    c1 = generate_collection(
        SyntheticSpec("mut-c1", n_documents=25, avg_terms_per_doc=8,
                      vocabulary_size=120, seed=7)
    )
    c2 = generate_collection(
        SyntheticSpec("mut-c2", n_documents=20, avg_terms_per_doc=8,
                      vocabulary_size=120, seed=8)
    )
    build_workspace(directory, c1, c2)
    service = JoinService({"ws": str(directory)}, max_workers=4)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    handle = ServiceHandle(
        service=service, server=server,
        base_url=f"http://127.0.0.1:{server.port}",
    )
    yield handle, directory
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def mutate(handle, sql, workspace="ws"):
    status, text = handle.post(
        "/mutate", {"sql": sql, "workspace": workspace}
    )
    return status, json.loads(text)


class TestMutateEndpoint:
    def test_insert_commits_and_reports_the_version(self, mutable_service):
        handle, directory = mutable_service
        status, payload = mutate(
            handle, "INSERT INTO R1 (Doc) VALUES ('1 2 3'), ('4 5')"
        )
        assert status == 200, payload
        assert payload["event"] == "mutation"
        assert payload["workspace"] == "ws"
        assert payload["inserted"] == {"c1": 2, "c2": 0}
        assert payload["version"] == 2
        manifest = load_manifest(directory)
        assert manifest["collections"]["c1"]["n_documents"] == 27

    def test_queries_after_the_commit_see_the_new_data(self, mutable_service):
        handle, _ = mutable_service
        status, before = handle.query({"sql": "SELECT R1.Id FROM R1"})
        assert status == 200
        rows_before = sum(len(b["rows"]) for b in before["blocks"])
        status, payload = mutate(
            handle, "INSERT INTO R1 (Doc) VALUES ('7 9 11')"
        )
        assert status == 200, payload
        status, after = handle.query({"sql": "SELECT R1.Id FROM R1"})
        assert status == 200
        rows_after = sum(len(b["rows"]) for b in after["blocks"])
        assert rows_after == rows_before + 1

    def test_join_results_reflect_deletes(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(handle, "DELETE FROM R2 WHERE Id = 0")
        assert status == 200, payload
        assert payload["deleted"] == {"c1": 0, "c2": 1}
        status, document = handle.query({"sql": JOIN_SQL})
        assert status == 200
        # outer ids renumber densely after the delete
        outer_ids = {row[0] for b in document["blocks"] for row in b["rows"]}
        assert all(isinstance(i, int) and 0 <= i < 19 for i in outer_ids)

    def test_health_counts_mutations(self, mutable_service):
        handle, _ = mutable_service
        status, payload = handle.get("/health")
        assert status == 200
        assert payload["mutations"] == 0
        mutate(handle, "INSERT INTO R1 (Doc) VALUES ('1')")
        mutate(handle, "DELETE FROM R2 WHERE Id = 3")
        status, payload = handle.get("/health")
        assert payload["mutations"] == 2


    def test_response_and_metrics_carry_the_reuse_counts(self, mutable_service):
        handle, _ = mutable_service
        _, payload = mutate(handle, "INSERT INTO R1 (Doc) VALUES ('1 2')")
        assert (payload["segments_reused"], payload["segments_loaded"]) == (1, 1)
        status, metrics = handle.get("/metrics")
        assert status == 200
        assert metrics["mutations"]["segments_reused"] == 1
        assert metrics["mutations"]["swap_seconds"] == payload["swap_seconds"]


class TestMutateFailures:
    def test_select_is_a_bad_request(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(handle, "SELECT * FROM R1")
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_unknown_workspace_is_404(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(
            handle, "INSERT INTO R1 (Doc) VALUES ('1')", workspace="nope"
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-workspace"

    def test_sql_syntax_error_maps_to_400(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(handle, "INSERT INTO R1 Doc VALUES ('1')")
        assert status == 400
        assert payload["error"]["code"] == "sql-syntax"

    def test_delete_all_is_refused_and_changes_nothing(self, mutable_service):
        handle, directory = mutable_service
        status, payload = mutate(handle, "DELETE FROM R1 WHERE Id >= 0")
        assert status == 400, payload
        manifest = load_manifest(directory)
        assert manifest["schema"] == "repro-workspace/2"
        assert manifest["collections"]["c1"]["n_documents"] == 25

    def test_unknown_request_field_is_rejected(self, mutable_service):
        handle, _ = mutable_service
        status, text = handle.post(
            "/mutate",
            {"sql": "DELETE FROM R1 WHERE Id = 1", "workspace": "ws",
             "shards": 2},
        )
        assert status == 400
        assert json.loads(text)["error"]["code"] == "bad-request"

    def test_failed_mutation_keeps_the_service_serving(self, mutable_service):
        handle, _ = mutable_service
        mutate(handle, "DELETE FROM R1 WHERE Id = 99999")
        status, document = handle.query({"sql": JOIN_SQL})
        assert status == 200
        assert document["summary"]["rows"] >= 0


# --- warm mutations: what a mutate reads, and what it may share ---------------


@pytest.fixture()
def resident(tmp_path):
    """An in-process service over a private vocabulary workspace."""
    from repro.service import JoinService
    from repro.text.collection import DocumentCollection
    from repro.text.tokenizer import Tokenizer
    from repro.text.vocabulary import Vocabulary

    words = [f"w{i:03d}x" for i in range(60)]
    texts1 = [" ".join(words[(3 * d + k) % 60] for k in range(7)) for d in range(30)]
    texts2 = [" ".join(words[(5 * d + k) % 60] for k in range(6)) for d in range(24)]
    vocabulary = Vocabulary()
    tokenizer = Tokenizer()
    c1 = DocumentCollection.from_texts("res-c1", texts1, vocabulary, tokenizer)
    c2 = DocumentCollection.from_texts("res-c2", texts2, vocabulary, tokenizer)
    vocabulary.freeze()
    directory = tmp_path / "ws"
    build_workspace(directory, c1, c2, vocabulary=vocabulary)
    return JoinService({"ws": str(directory)}, max_workers=4), directory, words


def _request(sql):
    from repro.service import MutateRequest

    return MutateRequest(sql=sql, workspace="ws")


def _rows(service, sql=JOIN_SQL):
    from repro.service import QueryRequest

    return [
        tuple(row)
        for event in service.stream(QueryRequest(sql=sql, workspace="ws"))
        if event["event"] == "block"
        for row in event["rows"]
    ]


def _cold_rows(directory, sql=JOIN_SQL):
    """The same query over a fresh catalog: nothing held, nothing shared."""
    from repro.cost.params import SystemParams
    from repro.sql import execute
    from repro.workspace import workspace_catalog

    catalog, factory = workspace_catalog(directory)
    system = SystemParams(buffer_pages=256, page_bytes=factory.spec.page_bytes)
    return [tuple(row) for row in execute(sql, catalog, system).rows]


class TestWarmMutate:
    def test_summary_and_metrics_say_what_was_reused(self, resident):
        service, directory, words = resident
        first = service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]}')"))
        # the build-once base was held from start-up; the delta is new
        assert (first["segments_reused"], first["segments_loaded"]) == (1, 1)
        second = service.mutate(_request("DELETE FROM R2 WHERE Id = 2"))
        assert (second["segments_reused"], second["segments_loaded"]) == (1, 1)
        for payload in (first, second):
            assert payload["apply_seconds"] > 0 and payload["swap_seconds"] > 0
            assert (
                payload["apply_seconds"] + payload["swap_seconds"]
                <= payload["elapsed_seconds"]
            )
        totals = service.metrics.snapshot()["mutations"]
        assert totals["segments_reused"] == 2 and totals["segments_loaded"] == 2
        assert totals["apply_seconds"] == pytest.approx(
            first["apply_seconds"] + second["apply_seconds"]
        )

    def test_first_write_after_a_compaction_is_visibly_cold(self, resident):
        from repro.workspace import compact, freeze_delta

        service, directory, words = resident
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]}')"))
        freeze_delta(directory)  # behind the server's back, as the spine does
        frozen = service.mutate(_request(f"INSERT INTO R2 (Doc) VALUES ('{words[2]}')"))
        # the sealed delta's fingerprint moved but its files did not
        assert (frozen["segments_reused"], frozen["segments_loaded"]) == (2, 1)
        compact(directory)
        cold = service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[3]}')"))
        assert (cold["segments_reused"], cold["segments_loaded"]) == (0, 2)
        warm = service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[4]}')"))
        assert (warm["segments_reused"], warm["segments_loaded"]) == (1, 1)
        assert _rows(service) == _cold_rows(directory)

    def test_warm_mutate_opens_no_file_of_a_held_segment(
        self, resident, file_reads, monkeypatch
    ):
        from repro.cost import delta_rewrite_pages
        from repro.workspace import manifest_segments

        service, directory, words = resident
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]} {words[9]}')"))
        before = load_manifest(directory)
        base, old_delta = manifest_segments(before)
        assert old_delta["kind"] == "delta" and delta_rewrite_pages(before) > 0

        reads = file_reads()
        summary = service.mutate(
            _request(f"INSERT INTO R2 (Doc) VALUES ('{words[5]} {words[7]}')")
        )
        monkeypatch.undo()

        after = load_manifest(directory)
        new_delta = manifest_segments(after)[-1]
        allowed = {
            str(directory / name)
            for name in (
                MANIFEST_NAME,
                before["vocabulary"],
                *old_delta["files"],  # what delta_rewrite_pages prices
                *new_delta["files"],
            )
        }
        assert set(reads) <= allowed, sorted(set(reads) - allowed)
        held = {str(directory / name) for name in base["files"]}
        assert held and not held & set(reads)
        # one parse per statement, one per snapshot load
        assert reads.count(str(directory / before["vocabulary"])) == 2
        # the pages charged are the manifest's, not what Python opened
        assert summary["pages_read"] == delta_rewrite_pages(before)
        assert _rows(service) == _cold_rows(directory)

    def test_in_flight_reader_finishes_on_its_own_snapshot(self, resident):
        """The new snapshot shares documents and entries with the old one;
        a stream that began before the swap must not notice."""
        from repro.service import QueryRequest

        service, directory, words = resident
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]}')"))
        expected = _cold_rows(directory)
        events = service.stream(QueryRequest(sql=JOIN_SQL, workspace="ws"))
        streamed = []
        for event in events:
            if event["event"] == "block":
                streamed.extend(tuple(row) for row in event["rows"])
                break  # mid-stream: some blocks out, most still to come
        old_docs = service._workspaces["ws"].factory.collection1.documents
        service.mutate(_request("DELETE FROM R1 WHERE Id = 29"))
        service.mutate(_request(f"INSERT INTO R2 (Doc) VALUES ('{words[2]} {words[3]}')"))
        new_docs = service._workspaces["ws"].factory.collection1.documents
        assert new_docs[0] is old_docs[0]  # really shared, not copied
        for event in events:
            if event["event"] == "block":
                streamed.extend(tuple(row) for row in event["rows"])
        assert streamed == expected
        assert _rows(service) == _cold_rows(directory) != expected


# --- warm mutations: what a mutate builds ---------------------------------------


def _merges(monkeypatch):
    """Every role :func:`~repro.workspace.segments.merged_view` folds, in order."""
    from repro.workspace import segments

    calls = []
    real = segments.merged_view

    def counting(role, *args, **kwargs):
        calls.append(role)
        return real(role, *args, **kwargs)

    monkeypatch.setattr(segments, "merged_view", counting)
    return calls


#: case -> (service statements first, service steps A, cold steps B after the
#: restore, service statement C); B writes the segment ids A wrote, differing
#: from A's only in the key field the case names ("freeze" seals the delta
#: behind the service's back).  In the prefix cases the segment that differs
#: is sealed, so C appends to a held *prefix* fold that names it.
STALE_CASES = {
    # A: tombstone (base, 2); B: tombstone (base, 5); no files either way
    "tombstones": (
        (),
        ("DELETE FROM R2 WHERE Id = 2",),
        ("DELETE FROM R2 WHERE Id = 5",),
        "DELETE FROM R2 WHERE Id = 2",
    ),
    # A keeps one of three delta documents, B two; no tombstones either way
    "files": (
        ("INSERT INTO R2 (Doc) VALUES ('{0}'), ('{1}'), ('{2}')",),
        ("DELETE FROM R2 WHERE Id > 24",),
        ("DELETE FROM R2 WHERE Id = 24",),
        "DELETE FROM R2 WHERE Id = 25",
    ),
    # a sealed segment of A's documents, of B's: same count, other files
    "prefix-files": (
        (),
        ("INSERT INTO R2 (Doc) VALUES ('{0}'), ('{1}')", "freeze",
         "INSERT INTO R1 (Doc) VALUES ('{4}')"),
        ("INSERT INTO R2 (Doc) VALUES ('{2}'), ('{3}')", "freeze",
         "INSERT INTO R1 (Doc) VALUES ('{4}')"),
        "INSERT INTO R1 (Doc) VALUES ('{5}')",
    ),
    # a sealed segment of A's tombstone, of B's: no files either way
    "prefix-tombstones": (
        (),
        ("DELETE FROM R2 WHERE Id = 2", "freeze",
         "INSERT INTO R1 (Doc) VALUES ('{4}')"),
        ("DELETE FROM R2 WHERE Id = 5", "freeze",
         "INSERT INTO R1 (Doc) VALUES ('{4}')"),
        "INSERT INTO R1 (Doc) VALUES ('{5}')",
    ),
}


class TestWarmMutateBuilds:
    def test_a_warm_mutation_merges_each_role_once(self, resident, monkeypatch):
        from repro.workspace import freeze_delta

        service, directory, words = resident
        merges = _merges(monkeypatch)
        # the start-up base was never merged: the first write folds twice
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]}')"))
        steps = [
            f"INSERT INTO R1 (Doc) VALUES ('{words[2]} {words[4]}')",
            "DELETE FROM R2 WHERE Id = 3",
            "freeze",
            f"INSERT INTO R2 (Doc) VALUES ('{words[6]}')",
            "DELETE FROM R1 WHERE Id = 0",
        ]
        for step in steps:
            if step == "freeze":
                freeze_delta(directory)  # behind the service's back
                continue
            merges.clear()
            service.mutate(_request(step))
            assert sorted(merges) == ["c1", "c2"], step
            assert _rows(service) == _cold_rows(directory)

    def test_a_warm_insert_builds_only_the_delta(self, resident, monkeypatch):
        """After a base delete renumbered every later document, an INSERT
        still constructs only the delta's documents and touched entries:
        the fold starts from the held prefix, not the leading segment."""
        from repro.index.inverted import InvertedEntry
        from repro.text.document import Document

        service, directory, words = resident
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]} {words[8]}')"))
        service.mutate(_request("DELETE FROM R1 WHERE Id = 0"))  # a tombstone
        built_docs, built_terms = [], []
        real_doc, real_entry = Document.__init__, InvertedEntry.__init__

        def doc_init(self, doc_id, cells):
            real_doc(self, doc_id, cells)
            built_docs.append(self.cells)

        def entry_init(self, term, postings):
            real_entry(self, term, postings)
            built_terms.append(term)

        monkeypatch.setattr(Document, "__init__", doc_init)
        monkeypatch.setattr(InvertedEntry, "__init__", entry_init)
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[2]} {words[50]}')"))
        monkeypatch.undo()

        delta = service._workspaces["ws"].held.segments[-1].collections["c1"]
        delta_cells = {doc.cells for doc in delta}
        assert len(delta_cells) == 2 and built_docs
        assert set(built_docs) <= delta_cells
        assert built_terms
        assert set(built_terms) <= {term for cells in delta_cells for term, _ in cells}
        assert _rows(service) == _cold_rows(directory)

    def test_a_warm_insert_places_only_the_new_record(self, resident):
        """The next snapshot's extents start from the spans the previous
        one materialised: records that kept their place share them."""
        service, directory, words = resident
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[1]}')"))
        old = service._workspaces["ws"].factory
        old_spans = {
            side: (old.docs_extent(side).spans(), old.inverted_extent(side).spans())
            for side in (1, 2)
        }
        service.mutate(_request(f"INSERT INTO R1 (Doc) VALUES ('{words[3]} {words[40]}')"))
        new = service._workspaces["ws"].factory
        docs1 = new.docs_extent(1).spans()
        assert len(docs1) == len(old_spans[1][0]) + 1
        assert all(mine is theirs for mine, theirs in zip(docs1, old_spans[1][0]))
        # C2 did not change: every span of both its extents is shared
        for mine, theirs in zip(
            (new.docs_extent(2).spans(), new.inverted_extent(2).spans()), old_spans[2]
        ):
            assert len(mine) == len(theirs)
            assert all(a is b for a, b in zip(mine, theirs))
        assert not new._replaced  # the old extents are let go once laid out
        assert _rows(service) == _cold_rows(directory)

    @pytest.mark.parametrize("case", sorted(STALE_CASES))
    def test_a_held_view_is_never_stale(self, resident, tmp_path, case):
        """A restore from backup plus cold writes rewrite, behind the
        service's back, a segment id the service holds a view of."""
        import shutil

        from repro.sql import execute_mutation
        from repro.workspace import freeze_delta, verify_workspace

        setup, held_steps, cold_steps, next_sql = STALE_CASES[case]
        service, directory, words = resident

        def play(steps, target, run):
            for step in steps:
                if step == "freeze":
                    freeze_delta(target)
                else:
                    run(step.format(*words))

        for sql in setup:
            service.mutate(_request(sql.format(*words)))
        backup = tmp_path / "backup"
        shutil.copytree(directory, backup)
        play(held_steps, directory, lambda sql: service.mutate(_request(sql)))
        shutil.rmtree(directory)
        shutil.copytree(backup, directory)
        play(cold_steps, directory, lambda sql: execute_mutation(sql, directory))
        service.mutate(_request(next_sql.format(*words)))

        oracle = tmp_path / "oracle"
        shutil.copytree(backup, oracle)
        play(cold_steps, oracle, lambda sql: execute_mutation(sql, oracle))
        execute_mutation(next_sql.format(*words), oracle)
        assert _rows(service) == _cold_rows(directory) == _cold_rows(oracle)
        assert verify_workspace(directory) == []
