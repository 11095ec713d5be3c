"""X4c — extension: compressed inverted files.

d-gap + vbyte posting compression shrinks exactly the ``I``/``J``
figures the inverted-file algorithms pay for.  Executes HVNL and VVM
over the same collections with and without compression and reports the
measured I/O saving (results are bit-identical by construction) as a
rendered table.
"""

from repro.core.hvnl import run_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.experiments.tables import format_grid
from repro.index.inverted import InvertedFile
from repro.index.compression import CompressedInvertedFile
from repro.storage.pages import PageGeometry
from repro.workloads.synthetic import SyntheticSpec, generate_collection

C1 = generate_collection(
    SyntheticSpec("zip1", n_documents=160, avg_terms_per_doc=22,
                  vocabulary_size=600, seed=101)
)
C2 = generate_collection(
    SyntheticSpec("zip2", n_documents=120, avg_terms_per_doc=18,
                  vocabulary_size=600, seed=102)
)
SYSTEM = SystemParams(buffer_pages=20, page_bytes=512)


def run_both():
    plain_env = JoinEnvironment(C1, C2, PageGeometry(512))
    packed_env = JoinEnvironment(C1, C2, PageGeometry(512), codec="vbyte")
    rows = []
    for name, runner in (("HVNL", run_hvnl), ("VVM", run_vvm)):
        plain = runner(plain_env, TextJoinSpec(lam=5), SYSTEM, delta=0.5)
        packed = runner(packed_env, TextJoinSpec(lam=5), SYSTEM, delta=0.5)
        assert plain.same_matches_as(packed)
        rows.append(
            {
                "algorithm": name,
                "plain pages": plain.io.total_reads,
                "compressed pages": packed.io.total_reads,
                "saving": 1 - packed.io.total_reads / plain.io.total_reads,
            }
        )
    ratio = CompressedInvertedFile.from_inverted(
        InvertedFile.build(C1)
    ).compression_ratio(InvertedFile.build(C1))
    rows.append({"algorithm": "(codec ratio C1)", "plain pages": "", "compressed pages": "", "saving": 1 - 1 / ratio})
    return rows


def test_compression_extension(benchmark, save_table):
    rows = benchmark.pedantic(run_both, rounds=3, iterations=1)
    save_table(
        "extension_compression",
        format_grid(
            rows,
            columns=["algorithm", "plain pages", "compressed pages", "saving"],
            title="X4c — measured I/O with compressed inverted files",
        ),
    )
    for row in rows[:2]:
        assert row["saving"] > 0.3, row  # postings compress > 1.5x
