"""Tests for the async multi-tenant serving layer (DESIGN.md §11).

Pins the contracts the serving surface documents:

* protocol validation rejects malformed requests with the documented codes,
* ``HybridSession.sssp_batch`` -- the coalescing core -- is bit-identical to
  sequential single-source queries (including singletons and duplicates),
* a coalescing server returns answers bit-identical to one-query-per-pass
  while executing strictly fewer simulation passes,
* per-tenant scoped accounting is deterministic and charges every
  participant the full pass,
* admission control (queue overflow, tenant quota) and graceful shutdown
  behave as §11 specifies, end to end over TCP too, and
* the E16 benchmark emits the documented summary schema with a
  deterministic payload hash and byte-identical manifests.
"""

import asyncio
import json
import zlib

import numpy as np
import pytest

from repro import HybridSession, ModelConfig
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.serving import (
    ProtocolError,
    QueryServer,
    ServerConfig,
    batch_key,
    parse_request,
    plan_batches,
    query_tcp,
    serve_tcp,
)
from repro.serving import benchmark, protocol
from repro.util.rand import RandomSource


def make_graph(seed=3, n=56):
    return generators.connected_workload(n, RandomSource(seed), weighted=True, max_weight=9)


def make_session(graph, seed=1):
    return HybridSession(graph, ModelConfig(rng_seed=seed))


def sssp_request(index, source, tenant="acme"):
    return {"id": f"sssp-{index}", "tenant": tenant, "op": "sssp", "source": source}


def serve(requests, session, config):
    """Run ``requests`` concurrently against a fresh server; return responses + server."""

    async def _run():
        async with QueryServer(session, config) as server:
            tasks = [asyncio.ensure_future(server.submit(req)) for req in requests]
            responses = await asyncio.gather(*tasks)
        return responses, server

    return asyncio.run(_run())


class TestProtocol:
    def test_parse_valid_sssp(self):
        query = parse_request('{"id": "a", "op": "sssp", "source": 3}')
        assert query.op == "sssp"
        assert query.tenant == "default"
        assert query.params["source"] == 3

    @pytest.mark.parametrize(
        "raw",
        [
            "not json",
            '["a", "list"]',
            '{"id": "a", "op": "teleport"}',
            '{"op": "sssp", "source": 1}',
            '{"id": "", "op": "sssp", "source": 1}',
            '{"id": "a", "tenant": 7, "op": "sssp", "source": 1}',
            '{"id": "a", "op": "sssp"}',
            '{"id": "a", "op": "sssp", "source": "zero"}',
            '{"id": "a", "op": "apsp", "probability": 1.5}',
            '{"id": "a", "op": "shortest-paths", "sources": []}',
            '{"id": "a", "op": "route-tokens", "tokens": [[1, 2]]}',
        ],
    )
    def test_parse_rejects_bad_requests(self, raw):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(raw)
        assert excinfo.value.code == "bad-request"

    def test_matrix_checksum_tracks_every_entry(self):
        matrix = np.array([[0.0, 2.0, np.inf], [2.0, 0.0, 5.0], [np.inf, 5.0, 0.0]])
        assert protocol.matrix_checksum(matrix) == protocol.matrix_checksum(matrix.copy())
        changed = matrix.copy()
        changed[1, 2] = 6.0
        assert protocol.matrix_checksum(changed) != protocol.matrix_checksum(matrix)

    def test_shortest_paths_sources_sorted_deduped(self):
        query = parse_request(
            '{"id": "a", "op": "shortest-paths", "sources": [5, 1, 5, 3]}'
        )
        assert query.params["sources"] == (1, 3, 5)

    def test_bad_request_response_echoes_id_when_parseable(self):
        graph = make_graph(n=16)
        responses, server = serve(
            [{"id": "bad", "op": "teleport"}],
            make_session(graph),
            ServerConfig(batch_window=0),
        )
        assert responses[0] == {
            "id": "bad",
            "ok": False,
            "error": {
                "code": "bad-request",
                "message": responses[0]["error"]["message"],
            },
        }
        assert server.stats.rejected == 1


class TestBatchPlanning:
    def test_sssp_always_coalesces(self):
        queries = [parse_request(sssp_request(i, i)) for i in range(4)]
        assert len({batch_key(q, i) for i, q in enumerate(queries)}) == 1
        assert plan_batches(queries, max_batch=8) == [[0, 1, 2, 3]]

    def test_route_tokens_never_coalesces(self):
        raw = {"id": "r", "op": "route-tokens", "tokens": [[0, 1, 7]]}
        queries = [parse_request({**raw, "id": f"r{i}"}) for i in range(3)]
        assert plan_batches(queries, max_batch=8) == [[0], [1], [2]]

    def test_max_batch_chunks_groups(self):
        queries = [parse_request(sssp_request(i, i)) for i in range(5)]
        assert plan_batches(queries, max_batch=2) == [[0, 1], [2, 3], [4]]

    def test_coalesce_off_is_one_query_per_pass(self):
        queries = [parse_request(sssp_request(i, i)) for i in range(3)]
        assert plan_batches(queries, max_batch=8, coalesce=False) == [[0], [1], [2]]


class TestSsspBatchIdentity:
    def test_batch_bit_identical_to_sequential(self):
        graph = make_graph()
        sources = [0, 7, 13, 13, 41]  # includes a duplicate
        batched = make_session(graph).sssp_batch(sources)
        sequential_session = make_session(graph)
        for source, result in zip(sources, batched):
            assert result.source == source
            solo = sequential_session.sssp(source)
            assert result.distances == solo.distances

    def test_singleton_batch_matches_sssp(self):
        graph = make_graph(n=40)
        batched = make_session(graph).sssp_batch([5])
        solo = make_session(graph).sssp(5)
        assert batched[0].distances == solo.distances

    def test_batch_validates_sources(self):
        session = make_session(make_graph(n=24), seed=2)
        with pytest.raises(ValueError):
            session.sssp_batch([])
        with pytest.raises(ValueError):
            session.sssp_batch([999])


class TestEveryOperation:
    """One request of every protocol operation is served successfully."""

    def test_every_op_answers_ok(self):
        graph = generators.connected_workload(40, RandomSource(6))
        requests = {
            "apsp": {"op": "apsp"},
            "diameter": {"op": "diameter"},
            "route-tokens": {"op": "route-tokens", "tokens": [[0, 5, "a"], [3, 9, "b"]]},
            "shortest-paths": {"op": "shortest-paths", "sources": [4]},
            "sssp": {"op": "sssp", "source": 2},
        }
        assert set(requests) == set(protocol.OPERATIONS)
        requests = [{"id": op, **request} for op, request in requests.items()]
        responses, _ = serve(requests, make_session(graph), ServerConfig())
        for response in responses:
            assert response["ok"], response

    @pytest.mark.parametrize("sources", [[11], [3, 11, 30]])
    def test_shortest_paths_distances_match_session(self, sources):
        graph = make_graph(n=40)
        request = {"id": "sp", "op": "shortest-paths", "sources": sources}
        (response,), _ = serve([request], make_session(graph), ServerConfig())
        assert response["ok"], response
        expected = make_session(graph).shortest_paths(sources)
        assert response["result"]["distances"] == {
            str(source): [expected.estimate(node, source) for node in range(40)]
            for source in sources
        }


def split_graph():
    """A weighted 24-node component plus a separate 10-node path."""
    graph = WeightedGraph(34)
    for u, v, w in make_graph(seed=5, n=24).edges():
        graph.add_edge(u, v, w)
    for node in range(24, 33):
        graph.add_edge(node, node + 1, 2)
    return graph


def as_wire(values):
    """Distances as the protocol encodes them: ``None`` for ``inf``."""
    return [None if value == float("inf") else value for value in values]


class TestServedEdge:
    """Served answers on a disconnected graph and on n = 1 (DESIGN.md §11)."""

    @pytest.mark.parametrize(
        "graph, sources",
        [(split_graph(), [0, 7, 33]), (WeightedGraph(1), [0])],
        ids=["disconnected", "single-node"],
    )
    def test_unreachable_as_null_and_equal_to_session(self, graph, sources):
        requests = [sssp_request(index, source) for index, source in enumerate(sources)]
        requests.append({"id": "sp", "op": "shortest-paths", "sources": sources})
        responses, _ = serve(requests, make_session(graph), ServerConfig(batch_window=0.05))
        assert all(response["ok"] for response in responses), responses
        *served_sssp, served_sp = responses

        batch = make_session(graph).sssp_batch(sources)
        for response, expected in zip(served_sssp, batch, strict=True):
            distances = response["result"]["distances"]
            assert response["result"]["source"] == expected.source
            assert list(expected.distances) == list(range(graph.node_count))
            assert distances == as_wire(expected.distances.values())

        expected = make_session(graph).shortest_paths(sources)
        assert served_sp["result"]["distances"] == {
            str(source): as_wire(expected.estimates[:, column].tolist())
            for column, source in enumerate(expected.sources)
        }
        unreachable = graph.node_count > 1
        assert any(None in response["result"]["distances"] for response in served_sssp) == (
            unreachable
        )

    def test_apsp_checksum_recomputes_from_the_served_matrix(self):
        request = {"id": "m", "op": "apsp", "include_matrix": True}
        (response,), _ = serve([request], make_session(split_graph()), ServerConfig())
        assert response["ok"], response
        rows = [
            [np.inf if value is None else value for value in row]
            for row in response["result"]["matrix"]
        ]
        digest = zlib.crc32(np.array(rows, dtype="<f8").tobytes())
        assert response["result"]["checksum"] == f"{digest:08x}"


class TestServerCoalescing:
    def test_batched_answers_identical_to_sequential_with_fewer_passes(self):
        graph = make_graph()
        requests = [sssp_request(i, s, tenant=("acme", "globex")[i % 2])
                    for i, s in enumerate([0, 9, 17, 25, 33])]
        requests.append({"id": "apsp-a", "tenant": "acme", "op": "apsp"})
        requests.append({"id": "apsp-b", "tenant": "globex", "op": "apsp"})
        config = dict(batch_window=0, max_pending=16, max_batch=16)

        batched, batched_server = serve(
            requests, make_session(graph), ServerConfig(**config)
        )
        sequential, sequential_server = serve(
            requests, make_session(graph), ServerConfig(**config, coalesce=False)
        )

        def answers(responses):
            out = []
            for response in responses:
                stripped = {k: v for k, v in response.items() if k != "batch_size"}
                stripped["result"] = {
                    k: v for k, v in stripped["result"].items() if k != "cost"
                }
                out.append(stripped)
            return sorted(json.dumps(entry, sort_keys=True) for entry in out)

        assert all(response["ok"] for response in batched + sequential)
        assert answers(batched) == answers(sequential)
        assert batched_server.stats.passes == 2  # one sssp pass + one apsp pass
        assert sequential_server.stats.passes == len(requests)
        assert batched_server.stats.coalesced_queries == len(requests)

    def test_tenant_accounting_deterministic_and_charges_full_pass(self):
        graph = make_graph(n=48)
        requests = [sssp_request(i, 3 * i, tenant=("acme", "globex")[i % 2])
                    for i in range(4)]

        def run_once():
            _, server = serve(
                requests,
                make_session(graph),
                ServerConfig(batch_window=0, max_pending=8),
            )
            return server.tenant_summary(), server.stats.passes

        first, passes = run_once()
        second, _ = run_once()
        assert first == second  # deterministic at a fixed seed
        assert passes == 1
        assert set(first) == {"acme", "globex"}
        # Both tenants took part in the single shared pass, so each ledger
        # carries the full pass cost (the honest amortized view, §11).
        assert first["acme"]["amortized_rounds"] == first["globex"]["amortized_rounds"]
        assert first["acme"]["amortized_rounds"] > 0
        assert first["acme"]["queries"] == first["globex"]["queries"] == 2


class TestAdmissionControl:
    def test_queue_overflow_rejected(self):
        graph = make_graph(n=32)
        requests = [sssp_request(i, i) for i in range(5)]
        responses, server = serve(
            requests,
            make_session(graph),
            ServerConfig(batch_window=0.02, max_pending=2),
        )
        codes = [r.get("error", {}).get("code") for r in responses if not r["ok"]]
        assert codes == ["queue-full"] * 3
        assert server.stats.rejected == 3
        assert sum(1 for r in responses if r["ok"]) == 2
        assert server.tenant_summary()["acme"]["rejected"] == 3

    def test_tenant_quota_rejects_only_the_greedy_tenant(self):
        graph = make_graph(n=32)
        requests = [sssp_request(i, i, tenant="acme") for i in range(3)]
        requests.append(sssp_request(9, 9, tenant="globex"))
        responses, server = serve(
            requests,
            make_session(graph),
            ServerConfig(batch_window=0.02, max_pending=8, tenant_quota=2),
        )
        by_id = {r["id"]: r for r in responses}
        assert not by_id["sssp-2"]["ok"]
        assert by_id["sssp-2"]["error"]["code"] == "tenant-quota"
        assert by_id["sssp-9"]["ok"]  # the other tenant is unaffected
        assert server.tenant_summary()["acme"]["rejected"] == 1

    def test_graceful_shutdown_drains_then_rejects(self):
        graph = make_graph(n=32)

        async def _run():
            session = make_session(graph)
            server = QueryServer(session, ServerConfig(batch_window=0.05))
            server.start()
            tasks = [
                asyncio.ensure_future(server.submit(sssp_request(i, i)))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let every submit run to admission
            await server.close()  # drain: everything admitted is answered
            drained = await asyncio.gather(*tasks)
            late = await server.submit(sssp_request(99, 0))
            return drained, late

        drained, late = asyncio.run(_run())
        assert all(response["ok"] for response in drained)
        assert not late["ok"]
        assert late["error"]["code"] == "shutting-down"


class TestTcpRoundtrip:
    def test_line_protocol_over_tcp(self):
        # Unweighted: the workload includes a diameter query (Theorem 5.1).
        graph = generators.connected_workload(
            40, RandomSource(3), weighted=False
        )

        async def _run():
            session = make_session(graph)
            async with QueryServer(session, ServerConfig(batch_window=0.01)) as server:
                listener = await serve_tcp(server, port=0)
                port = listener.sockets[0].getsockname()[1]
                requests = [
                    sssp_request(0, 0),
                    sssp_request(1, 11, tenant="globex"),
                    {"id": "d", "op": "diameter"},
                ]
                responses = await query_tcp("127.0.0.1", port, requests)
                listener.close()
                await listener.wait_closed()
            return responses

        responses = asyncio.run(_run())
        assert len(responses) == 3
        assert all(response["ok"] for response in responses)
        by_id = {response["id"]: response for response in responses}
        assert by_id["sssp-0"]["result"]["distances"][0] == 0
        assert by_id["d"]["result"]["estimate"] >= 1


class TestMutationMidServe:
    """Mutations between batch windows keep the warm session honest (§12)."""

    @staticmethod
    def _sssp_over(server_requests, graph, seed=1):
        """Cold-serve ``server_requests`` on a fresh session over ``graph``."""
        responses, _ = serve(
            server_requests, make_session(graph, seed=seed), ServerConfig(batch_window=0)
        )
        return [response["result"]["distances"] for response in responses]

    def test_mutation_between_windows_repairs_and_charges_tenants(self):
        graph = make_graph(seed=3, n=56)
        session = make_session(graph)
        sources = [4, 9]

        def requests(tenant):
            return [sssp_request(i, s, tenant=tenant) for i, s in enumerate(sources)]

        async def _run():
            async with QueryServer(session, ServerConfig(batch_window=0)) as server:
                first = await asyncio.gather(
                    *[server.submit(req) for req in requests("alpha")]
                )
                base = session.context()
                outside = (
                    set(range(graph.node_count))
                    - set(base.skeleton.nodes)
                    - set(sources)
                )
                # The heaviest off-skeleton edge: rarely on a shortest path,
                # so raising it further stays under the damage threshold and
                # exercises the repair path (a rebuild would also be correct,
                # but this test pins the cheap path).
                u, v, weight = max(
                    (
                        (a, b, w)
                        for a, b, w in graph.edges()
                        if a in outside and b in outside
                    ),
                    key=lambda edge: (edge[2], edge[0], edge[1]),
                )
                ack = await server.mutate("update", u, v, weight + 4)
                second = await asyncio.gather(
                    *[server.submit(req) for req in requests("beta")]
                )
                third = await asyncio.gather(
                    *[server.submit(req) for req in requests("gamma")]
                )
                return server, first, ack, second, third, (u, v, weight)

        server, first, ack, second, third, (u, v, weight) = asyncio.run(_run())
        assert all(r["ok"] for r in first + second + third)
        assert ack == {
            "kind": "update",
            "u": u,
            "v": v,
            "weight": weight + 4,
            "version": session.graph.version,
        }

        # The pass that ran before the mutation answered for the old graph;
        # every later pass answers for the new one -- each bit-identical to a
        # cold server over the respective graph.
        old_graph = make_graph(seed=3, n=56)
        new_graph = make_graph(seed=3, n=56)
        new_graph.update_weight(u, v, weight + 4)
        assert [r["result"]["distances"] for r in first] == self._sssp_over(
            requests("alpha"), old_graph
        )
        new_oracle = self._sssp_over(requests("beta"), new_graph)
        assert [r["result"]["distances"] for r in second] == new_oracle
        assert [r["result"]["distances"] for r in third] == new_oracle

        # The warm context was repaired in place (not rebuilt), inside the
        # first post-mutation pass.
        assert [(rec.action, rec.deltas) for rec in session.repairs] == [("repaired", 1)]
        repair_rounds = session.repairs[0].rounds
        assert repair_rounds > 0

        # Tenant ledgers: the repair ran inside the pass that triggered it,
        # so "beta" paid at least the repair rounds (plus re-deriving the
        # batch extension, which a cold rebuild would also pay) on top of
        # what "gamma" paid for the identical already-current pass -- and no
        # more than "alpha", whose pass funded the cold build.  (The round
        # *win* of repair over rebuild is an E17 concern; at this diameter
        # the sssp exploration is diameter-capped either way.)
        summary = server.tenant_summary()
        assert summary["beta"]["amortized_rounds"] >= (
            summary["gamma"]["amortized_rounds"] + repair_rounds
        )
        assert (
            summary["beta"]["amortized_rounds"] <= summary["alpha"]["amortized_rounds"]
        )
        assert summary["alpha"]["queries"] == len(sources)

    def test_mutate_rejects_bad_kind_missing_weight_and_draining(self):
        graph = make_graph(seed=5, n=24)
        session = make_session(graph)

        async def _run():
            async with QueryServer(session, ServerConfig(batch_window=0)) as server:
                with pytest.raises(ProtocolError) as no_weight:
                    await server.mutate("update", 0, 1)
                with pytest.raises(ProtocolError) as bad_kind:
                    await server.mutate("teleport", 0, 1, 2)
            with pytest.raises(ProtocolError) as draining:
                await server.mutate("update", 0, 1, 2)
            return no_weight.value.code, bad_kind.value.code, draining.value.code

        assert asyncio.run(_run()) == ("bad-request", "bad-request", "shutting-down")


@pytest.mark.slow
class TestE16Smoke:
    def test_summary_schema_identity_and_manifest_determinism(self, tmp_path):
        summary = benchmark.run_comparison(48, 6, seed=7, batch_window=0.005)
        assert tuple(sorted(summary)) == tuple(sorted(benchmark.SUMMARY_SCHEMA))
        assert summary["responses_identical"] is True
        # Coalescing must win on simulated rounds even at smoke scale.
        assert summary["round_throughput_ratio"] > 1.3
        assert summary["modes"]["batched"]["passes"] < summary["modes"]["sequential"]["passes"]

        repeat = benchmark.run_comparison(48, 6, seed=7, batch_window=0.005)
        assert repeat["payload_hash"] == summary["payload_hash"]

        paths_a = benchmark.write_run_artifacts(tmp_path / "a", summary)
        paths_b = benchmark.write_run_artifacts(tmp_path / "b", repeat)
        assert paths_a["manifest"].read_bytes() == paths_b["manifest"].read_bytes()
        assert len(paths_a["metrics"].read_text().splitlines()) > 0
        written = json.loads(paths_a["summary"].read_text())
        assert written["payload_hash"] == summary["payload_hash"]
