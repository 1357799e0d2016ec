"""End-to-end tests of the asyncio serving layer.

Every test boots a real :class:`Server` on an ephemeral port and talks
to it over TCP with the real :class:`Client` — admission control,
deadlines, metrics and graceful drain are exercised through the wire
protocol, exactly as production traffic would.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.networks import mnist_mlp
from repro.runtime import InferenceRuntime, RuntimeConfig
from repro.serve import (Client, ModelRegistry, ServeConfig, Server,
                         decode_array, read_message)
from repro.serve import registry as registry_mod
from repro.simulator import SCConfig, SCNetwork

PHASE = 4
SHAPE = (1, 28, 28)


def _config(**overrides):
    defaults = dict(
        port=0, models=("mnist_mlp",), phase_length=PHASE, seed=0,
        runtime=RuntimeConfig(workers=2, backend="thread", shard_size=2),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _x(n=2, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n,) + SHAPE)


def _held(server, compute_gate):
    """Gate the warm model's compute, so a request stays in flight
    until the test opens it."""
    return compute_gate(server.registry.resident("mnist_mlp").plan)


async def _until(predicate, timeout=10.0):
    """Yield to the loop until ``predicate()`` holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.001)


class TestPredict:
    def test_round_trip_bit_identical_to_library(self):
        # The wire adds framing, batching and admission — but never
        # changes a single bit of the logits.
        x = _x(3)

        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.predict("mnist_mlp", x)

        served = asyncio.run(run())
        sc = SCNetwork.from_trained(mnist_mlp(seed=0),
                                    SCConfig(phase_length=PHASE))
        with InferenceRuntime(sc, SHAPE) as direct:
            np.testing.assert_array_equal(served, direct.infer(x))

    def test_unbatched_sample_is_auto_batched(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    response = await client.predict_raw(
                        "mnist_mlp", _x(1)[0])
                    return response

        response = asyncio.run(run())
        assert response["ok"]
        assert len(response["argmax"]) == 1

    def test_unknown_model_is_bad_request(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.predict_raw("nope", _x(1))

        response = asyncio.run(run())
        assert response == {
            "ok": False, "error": "bad_request", "id": response["id"],
            "detail": response["detail"],
        }
        assert "unknown model" in response["detail"]

    def test_wrong_shape_is_bad_request(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.predict_raw(
                        "mnist_mlp", np.zeros((2, 3, 5, 5)))

        response = asyncio.run(run())
        assert not response["ok"]
        assert response["error"] == "bad_request"

    def test_nan_input_is_bad_request(self):
        # NaN survives the JSON frame; the runtime's input boundary
        # turns it into a typed bad_request, plain or progressive.
        x = _x(2)
        x[1, 0, 5, 5] = np.nan

        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    plain = await client.predict_raw("mnist_mlp", x)
                    prog = await client.predict_raw(
                        "mnist_mlp", x,
                        progressive={"start_phase_length": 2})
                    metrics = await client.metrics()
                    return plain, prog, metrics

        plain, prog, metrics = asyncio.run(run())
        for response in (plain, prog):
            assert not response["ok"]
            assert response["error"] == "bad_request"
            assert "1 non-finite" in response["detail"]
        assert metrics["server"]["bad_requests"] == 2
        assert metrics["server"]["errors"] == 0

    def test_unknown_message_type_is_bad_request(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.request({"type": "frobnicate"})

        response = asyncio.run(run())
        assert response["error"] == "bad_request"

    def test_many_concurrent_clients_all_complete(self):
        async def run():
            async with Server(_config()) as server:

                async def one(i):
                    async with Client("127.0.0.1", server.port) as c:
                        return await c.predict_raw("mnist_mlp",
                                                   _x(1, seed=i))

                return await asyncio.gather(*(one(i) for i in range(8)))

        responses = asyncio.run(run())
        assert all(r["ok"] for r in responses)


class TestMalformedInput:
    """Malformed arrays and frames answer ``bad_request``; none may
    escape as an exception that kills the connection handler."""

    @pytest.mark.parametrize("x", [
        {"shape": [1e400], "data": []},
        {"shape": [784], "data": "ab"},
        {"shape": [1e400], "b64": ""},
        {"shape": [784], "b64": "ab"},
    ])
    def test_bad_array_then_same_connection_serves(self, x):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    bad = await client.request(
                        {"type": "predict", "model": "mnist_mlp", "x": x})
                    good = await client.predict_raw("mnist_mlp", _x(1))
                    metrics = await client.metrics()
                    return bad, good, metrics

        bad, good, metrics = asyncio.run(run())
        assert bad["ok"] is False and bad["error"] == "bad_request"
        assert good["ok"], good
        assert metrics["server"]["bad_requests"] == 1
        assert metrics["server"]["errors"] == 0

    def test_deeply_nested_frame_is_bad_request(self):
        async def run():
            async with Server(_config()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                payload = b"[" * 100_000
                writer.write(struct.pack(">I", len(payload)) + payload)
                response = await read_message(reader)
                eof = await reader.read()
                writer.close()
                await writer.wait_closed()
                async with Client("127.0.0.1", server.port) as client:
                    metrics = await client.metrics()
                return response, eof, metrics

        response, eof, metrics = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert eof == b""   # framing is lost: the server hangs up
        assert metrics["server"]["bad_requests"] == 1


class TestRegistryLookup:
    def test_warm_model_skips_get_and_cold_model_loads(self, monkeypatch):
        # A resident model is taken on the event loop; only a miss goes
        # through ModelRegistry.get (and its worker-thread compile).
        monkeypatch.setitem(registry_mod.BENCH_NETWORKS, "cold_mlp",
                            registry_mod.BENCH_NETWORKS["mnist_mlp"])
        calls = []
        real_get = ModelRegistry.get

        def counting_get(registry, name):
            calls.append(name)
            return real_get(registry, name)

        monkeypatch.setattr(ModelRegistry, "get", counting_get)

        async def run():
            async with Server(_config()) as server:
                calls.clear()   # warm_up() compiled mnist_mlp via get
                async with Client("127.0.0.1", server.port) as client:
                    warm = [await client.predict_raw("mnist_mlp", _x(n))
                            for n in (1, 2)]
                    after_warm = list(calls)
                    cold = [await client.predict_raw("cold_mlp", _x(1))
                            for _ in range(2)]
                    return (warm, after_warm, cold, list(calls),
                            server.registry.loaded())

        warm, after_warm, cold, after_cold, loaded = asyncio.run(run())
        assert all(r["ok"] for r in warm + cold)
        assert after_warm == []
        assert after_cold == ["cold_mlp"]   # the second hit is resident
        assert loaded == ("mnist_mlp", "cold_mlp")
        np.testing.assert_array_equal(decode_array(cold[0]["logits"]),
                                      decode_array(warm[0]["logits"]))


class TestAdmission:
    def test_queue_full_sheds_with_backpressure(self, compute_gate):
        # Depth 1 and a held compute: the first request stays in flight
        # while the rest arrive, so exactly one is admitted and the
        # others get an explicit shed — the queue never grows past the
        # bound.
        config = _config(
            max_queue_depth=1,
            runtime=RuntimeConfig(workers=1, backend="thread",
                                  shard_size=2),
        )

        async def run():
            async with Server(config) as server:
                gate = _held(server, compute_gate)

                async def one(i):
                    async with Client("127.0.0.1", server.port) as c:
                        return await c.predict_raw("mnist_mlp", _x(1))

                tasks = [asyncio.ensure_future(one(i)) for i in range(5)]
                await _until(
                    lambda: server.counters["shed_queue_full"] == 4)
                gate.open()
                responses = await asyncio.gather(*tasks)
                return responses, server.admission.peak_in_flight

        responses, peak = asyncio.run(run())
        ok = [r for r in responses if r.get("ok")]
        shed = [r for r in responses if r.get("error") == "shed"]
        assert len(ok) == 1
        assert len(shed) == 4
        assert all(r["reason"] == "queue_full" for r in shed)
        assert peak == 1

    def test_quota_sheds_noisy_client_only(self):
        config = _config(quota_rate=0.001, quota_burst=1.0)

        async def run():
            async with Server(config) as server:
                async with Client("127.0.0.1", server.port,
                                  client_id="noisy") as noisy:
                    first = await noisy.predict_raw("mnist_mlp", _x(1))
                    second = await noisy.predict_raw("mnist_mlp", _x(1))
                async with Client("127.0.0.1", server.port,
                                  client_id="quiet") as quiet:
                    third = await quiet.predict_raw("mnist_mlp", _x(1))
                return first, second, third

        first, second, third = asyncio.run(run())
        assert first["ok"]
        assert second == {"ok": False, "error": "shed",
                          "reason": "quota", "id": second["id"]}
        assert third["ok"]

    def test_deadline_expiry_answers_deadline_error(self, compute_gate):
        # Compute held past the deadline: the request is still in
        # flight when the deadline cancels it.  A second request whose
        # deadline has already passed when it reaches the pool queues
        # behind the held one and is cancelled there, never computed.
        config = _config(
            runtime=RuntimeConfig(workers=1, backend="thread",
                                  shard_size=2),
        )

        async def run():
            async with Server(config) as server:
                gate = _held(server, compute_gate)
                async with Client("127.0.0.1", server.port) as client:
                    response = await client.predict_raw(
                        "mnist_mlp", _x(1), deadline_s=0.02)
                    expired = await client.predict_raw(
                        "mnist_mlp", _x(1, seed=1), deadline_s=0.0)
                    gate.open()
                    after = await client.predict_raw("mnist_mlp",
                                                     _x(1, seed=2))
                return response, expired, after, gate.shards

        response, expired, after, shards = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "deadline"
        assert response["deadline_s"] == 0.02
        assert expired["error"] == "deadline"
        assert after["ok"]
        # FIFO executor: the expired request would have run before the
        # last one had it not been cancelled.
        assert len(shards) == 2
        np.testing.assert_array_equal(shards[1], _x(1, seed=2))


class TestMetricsEndpoint:
    def test_schema_and_counters(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    await client.predict("mnist_mlp", _x(2))
                    return await client.metrics()

        metrics = asyncio.run(run())
        assert metrics["ok"]
        server = metrics["server"]
        assert server["requests"] == 1
        assert server["completed"] == 1
        assert server["in_flight"] == 0
        assert server["draining"] is False
        assert server["warm_models"] == ["mnist_mlp"]
        snapshot = metrics["models"]["mnist_mlp"]
        # MetricsSnapshot fields survive the JSON trip, rates included.
        assert snapshot["requests"] >= 1
        assert snapshot["samples"] == 2
        assert "samples_per_s" in snapshot
        assert "stage_seconds" in snapshot
        # Kernel counters are scoped to served traffic (warm-up kernels
        # were rebased away), so they only contain this request's work.
        assert metrics["kernels"]
        for name, (calls, seconds) in metrics["kernels"].items():
            assert calls > 0 and seconds >= 0.0

    def test_shed_traffic_is_visible_in_metrics(self):
        config = _config(quota_rate=0.001, quota_burst=1.0)

        async def run():
            async with Server(config) as server:
                async with Client("127.0.0.1", server.port,
                                  client_id="n") as client:
                    await client.predict_raw("mnist_mlp", _x(1))
                    await client.predict_raw("mnist_mlp", _x(1))
                    return await client.metrics()

        metrics = asyncio.run(run())
        assert metrics["server"]["shed_quota"] == 1
        assert metrics["server"]["quota_clients"] == 1


class TestGracefulDrain:
    def test_inflight_completes_while_new_requests_are_refused(
            self, compute_gate):
        # Held compute keeps the in-flight request running while the
        # drain starts underneath it.
        config = _config(
            runtime=RuntimeConfig(workers=1, backend="thread",
                                  shard_size=2),
        )

        async def run():
            server = Server(config)
            await server.start()
            gate = _held(server, compute_gate)
            inflight_client = await Client("127.0.0.1",
                                           server.port).connect()
            inflight = asyncio.ensure_future(
                inflight_client.predict_raw("mnist_mlp", _x(1)))
            await _until(lambda: gate.shards)   # request is computing
            late_client = await Client("127.0.0.1",
                                       server.port).connect()
            drain = asyncio.ensure_future(server.drain())
            await _until(lambda: server.admission.draining)
            late = await late_client.predict_raw("mnist_mlp", _x(1))
            gate.open()
            first = await inflight
            await drain
            await inflight_client.close()
            await late_client.close()
            return first, late, server

        first, late, server = asyncio.run(run())
        assert first["ok"], "in-flight request must complete"
        assert late == {"ok": False, "error": "shed",
                        "reason": "draining", "id": late["id"]}
        assert server.counters["completed"] == 1
        assert server.counters["shed_draining"] == 1

    def test_drain_is_idempotent_and_closes_registry(self):
        async def run():
            server = Server(_config())
            await server.start()
            await server.drain()
            await server.drain()
            return server

        server = asyncio.run(run())
        with pytest.raises(RuntimeError):
            server.registry.get("mnist_mlp")

    def test_ping_reports_draining(self, compute_gate):
        # The listening socket closes on drain, so probe via a
        # connection opened before the drain started.
        config = _config(
            runtime=RuntimeConfig(workers=1, backend="thread",
                                  shard_size=2),
        )

        async def run():
            server = Server(config)
            await server.start()
            gate = _held(server, compute_gate)
            client = await Client("127.0.0.1", server.port).connect()
            inflight = asyncio.ensure_future(
                client.predict_raw("mnist_mlp", _x(1)))
            await _until(lambda: gate.shards)
            probe = await Client("127.0.0.1", server.port).connect()
            drain = asyncio.ensure_future(server.drain())
            await _until(lambda: server.admission.draining)
            pong = await probe.ping()
            gate.open()
            await inflight
            await drain
            await client.close()
            await probe.close()
            return pong

        pong = asyncio.run(run())
        assert pong["ok"] and pong["draining"] is True


class TestProgressive:
    def test_round_trip_matches_library(self):
        # A gate-disabled progressive request extends to the model's
        # full phase length — and must return exactly the logits a
        # plain predict (and the library runtime) would.
        x = _x(2)
        spec = {"start_phase_length": 2, "margin_z": None}

        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    plain = await client.predict_raw("mnist_mlp", x)
                    prog = await client.predict_raw("mnist_mlp", x,
                                                    progressive=spec)
                    metrics = await client.metrics()
                    return plain, prog, metrics

        plain, prog, metrics = asyncio.run(run())
        assert prog["ok"], prog
        info = prog["progressive"]
        assert info["phase_length"] == PHASE
        assert info["early_exit"] is False
        assert info["history"][0] == 2
        assert info["extensions"] == len(info["history"]) - 1
        np.testing.assert_array_equal(decode_array(prog["logits"]),
                                      decode_array(plain["logits"]))
        snap = metrics["models"]["mnist_mlp"]
        assert snap["progressive_requests"] == 1
        assert snap["progressive_mean_final_length"] == float(PHASE)

    def test_progressive_true_uses_server_default_policy(self):
        config = _config(progressive={"start_phase_length": 2,
                                      "margin_z": None})

        async def run():
            async with Server(config) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.predict_raw("mnist_mlp", _x(1),
                                                    progressive=True)

        response = asyncio.run(run())
        assert response["ok"], response
        assert response["progressive"]["history"][0] == 2
        assert response["progressive"]["phase_length"] == PHASE

    def test_unknown_policy_field_is_bad_request(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.predict_raw(
                        "mnist_mlp", _x(1), progressive={"bogus": 1})

        response = asyncio.run(run())
        assert not response["ok"]
        assert response["error"] == "bad_request"
        assert "bogus" in response["detail"]

    def test_invalid_policy_value_is_bad_request(self):
        async def run():
            async with Server(_config()) as server:
                async with Client("127.0.0.1", server.port) as client:
                    return await client.predict_raw(
                        "mnist_mlp", _x(1),
                        progressive={"start_phase_length": 0})

        response = asyncio.run(run())
        assert not response["ok"]
        assert response["error"] == "bad_request"
