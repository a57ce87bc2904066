"""The session's implementation report and byte-budget source chunking.

The session reports one fixed implementation per layer (DESIGN.md §9), and
the batched kernels' source chunking never changes a result.  The message
plane's identity with the scalar oracle lives in ``test_message_plane.py``,
the fault-context memo in ``test_faults.py``.
"""

from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.csr import chunked_sources
from repro.graphs.graph import WeightedGraph
from repro.hybrid import ModelConfig
from repro.session import HybridSession
from repro.util.rand import RandomSource


class TestPlaneSelection:
    def test_session_reports_acceleration(self):
        session = HybridSession(generators.cycle_graph(8), ModelConfig())
        assert session.acceleration() == {
            "graph_backend": "csr",
            "message_plane": "vectorized",
            "kernels": {
                "distance_matrix": "scipy",
                "bfs_level_matrix": "scipy",
                "hop_limited_matrix": "scipy",
                "hop_diameter": "scipy",
            },
        }


class TestChunkedSources:
    def test_default_budget_preserved(self):
        # 128 MiB / (8 bytes x scratch factor 4) = 1<<22 cells.
        assert chunked_sources(1, list(range(10))) == [list(range(10))]
        chunks = chunked_sources(1 << 21, list(range(8)))
        assert chunks == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_explicit_budget(self):
        # budget 8*4*10 bytes => 10 cells => chunk of 2 sources at n=5.
        chunks = chunked_sources(5, list(range(5)), byte_budget=8 * 4 * 10)
        assert chunks == [[0, 1], [2, 3], [4]]

    def test_tiny_budget_still_progresses(self):
        assert chunked_sources(100, [1, 2], byte_budget=1) == [[1], [2]]

    def test_chunk_size_never_changes_results(self, monkeypatch):
        graph = generators.random_connected_graph(40, 3.0, RandomSource(13), max_weight=7)
        baseline = graph.distance_matrix()
        diameter = reference.hop_diameter(graph)
        monkeypatch.setattr(csr_kernels, "CHUNK_BYTES", 8 * 4 * 40 * 3)  # 3 sources/chunk
        rechunked = WeightedGraph.from_edges(40, graph.edges())
        assert (rechunked.distance_matrix() == baseline).all()
        assert rechunked.hop_diameter() == diameter
