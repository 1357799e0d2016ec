"""Unit tests for the serving layer's building blocks.

Protocol framing, token buckets, the admission controller, and the
model registry — everything below the socket.  End-to-end server tests
live in ``tests/test_serve_server.py``.
"""

import asyncio
import base64
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime import RuntimeConfig
from repro.serve import (AdmissionController, ModelRegistry, ProtocolError,
                         QuotaTable, ServeConfig, TokenBucket, decode_array,
                         encode_array, read_message, write_message)
from repro.serve import registry as registry_mod


#: Bit patterns the codec must carry exactly: both zeros, the smallest
#: and largest subnormals, +-max, +-inf, a quiet and a signalling NaN
#: with payloads, and a sign-set NaN.
_SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
    0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF,
    0xFFEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000001, 0x7FF0000000000DEF, 0xFFF8000000000000,
]

_float64_bits = hnp.arrays(
    np.uint64,
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
    elements=st.one_of(st.sampled_from(_SPECIAL_BITS),
                       st.integers(0, 2**64 - 1)),
)

_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False) | st.text(max_size=8))
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=12,
)
#: Objects shaped like the array form (or the removed float-list form),
#: so most draws reach the decoder past the key lookup.
_array_objects = st.fixed_dictionaries({
    "shape": st.lists(st.integers(-2, 2**66) | _json_scalars, max_size=4)
             | st.lists(st.integers(0, 10**4200), max_size=4)
             | _json_values,
    "b64": st.binary(max_size=24).map(
               lambda b: base64.b64encode(b).decode("ascii"))
           | st.text("ABCDEFabcdef0123456789+/=\n -", max_size=24)
           | _json_values,
}, optional={"data": _json_values})


def _wire(obj):
    return json.loads(json.dumps(obj))


class TestArrayCodec:
    def test_round_trip_exact(self):
        x = np.random.default_rng(0).uniform(-1, 1, (3, 1, 4, 4))
        out = decode_array(json.loads(json.dumps(encode_array(x))))
        np.testing.assert_array_equal(out, x)
        assert out.dtype == np.float64

    @given(_float64_bits)
    def test_round_trip_is_bit_exact(self, bits):
        x = bits.view(np.float64)
        out = decode_array(_wire(encode_array(x)))
        assert out.shape == x.shape
        assert out.dtype == np.float64
        assert out.flags.c_contiguous and out.flags.writeable
        np.testing.assert_array_equal(out.view(np.uint64), bits)

    def test_wire_form_is_base64_little_endian(self):
        x = np.array([[1.0, -2.5]])
        assert encode_array(x) == {
            "shape": [1, 2],
            "b64": base64.b64encode(
                struct.pack("<2d", 1.0, -2.5)).decode("ascii"),
        }

    @pytest.mark.parametrize("x", [
        np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
        np.arange(-3, 3, dtype=np.int64),
        np.array([True, False, True]),
        np.arange(12.0).reshape(3, 4).T,            # not C-contiguous
        np.arange(4.0).astype(">f8"),               # big-endian
        [[0.5, 0.25], [1.0, 0.0]],
        7.5,
    ])
    def test_other_inputs_encode_as_float64_values(self, x):
        expected = np.asarray(x, dtype=np.float64)
        out = decode_array(_wire(encode_array(x)))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.view(np.uint64),
                                      expected.view(np.uint64))

    def test_nested_lists_accepted(self):
        np.testing.assert_array_equal(
            decode_array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_shape_mismatch_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_array({"shape": [2, 3], "data": [1.0, 2.0]})

    def test_malformed_array_object(self):
        with pytest.raises(ProtocolError):
            decode_array({"shape": "nope"})
        with pytest.raises(ProtocolError):
            decode_array("just a string")

    @pytest.mark.parametrize("obj", [
        {"shape": [1e400], "data": []},             # removed float-list form
        {"shape": [784], "data": "ab"},
        {"shape": [1e400], "b64": ""},              # overflowing dim
        {"shape": [2**70, 0], "b64": ""},
        {"shape": [2**63], "b64": ""},
        {"shape": [10**4000, 10**4000], "b64": ""},  # 8001-digit product
        {"shape": [784.0], "b64": ""},              # non-integer dims
        {"shape": ["3"], "b64": ""},
        {"shape": [True], "b64": ""},
        {"shape": [-1], "b64": ""},                 # negative dim
        {"shape": [1] * 65, "b64": "AAAAAAAAAAA="},  # rank beyond numpy's
        {"shape": [784], "b64": "ab"},              # bad padding
        {"shape": [2], "b64": "AAAAAAAAAAA="},      # 8 bytes, needs 16
        {"shape": [1], "b64": "AAAA AAAAAAA="},     # non-base64 characters
        {"shape": [1], "b64": "AAAAAAAAAAé="},
        {"shape": [1], "b64": 5},
        {"shape": [1]},
        [[1.0], [1.0, 2.0]],                        # ragged
        [10**400],                                  # overflows float64
        [{"a": 1}],
    ])
    def test_malformed_arrays_are_protocol_errors(self, obj):
        with pytest.raises(ProtocolError):
            decode_array(obj)

    @given(_json_values | _array_objects)
    def test_fuzz_only_protocol_errors_escape(self, obj):
        try:
            out = decode_array(obj)
        except ProtocolError:
            return
        assert isinstance(out, np.ndarray) and out.dtype == np.float64


class _CollectingWriter:
    """StreamWriter stand-in capturing framed bytes."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        pass

    @property
    def data(self):
        return b"".join(self.chunks)


def _feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


_json_like = st.text('[]{}":,0123456789eE.-+ nulltruefalseé\\',
                     max_size=48).map(str.encode)
_nested = st.integers(0, 3000).flatmap(lambda n: st.sampled_from([
    b"[" * n + b"]" * n,
    b'{"a":' * n + b"1" + b"}" * n,
    b"[" * n,
]))
_frames = (st.binary(max_size=48)
           | st.builds(_frame, _json_like | _nested | st.binary(max_size=48)))


class TestFraming:
    def test_write_then_read_round_trips(self):
        async def run():
            writer = _CollectingWriter()
            message = {"type": "ping", "x": [1, 2, 3]}
            await write_message(writer, message)
            return await read_message(_feed_reader(writer.data))

        assert asyncio.run(run()) == {"type": "ping", "x": [1, 2, 3]}

    def test_oversize_frame_rejected(self):
        async def run():
            huge = struct.pack(">I", (64 << 20) + 1)
            with pytest.raises(ProtocolError, match="bound"):
                await read_message(_feed_reader(huge + b"x"))

        asyncio.run(run())

    def test_invalid_json_rejected(self):
        async def run():
            frame = struct.pack(">I", 4) + b"{{{{"
            with pytest.raises(ProtocolError, match="JSON"):
                await read_message(_feed_reader(frame))

        asyncio.run(run())

    def test_non_object_message_rejected(self):
        async def run():
            payload = b"[1,2]"
            frame = struct.pack(">I", len(payload)) + payload
            with pytest.raises(ProtocolError, match="object"):
                await read_message(_feed_reader(frame))

        asyncio.run(run())

    def test_deeply_nested_frame_rejected(self):
        # 100 KB of '[' overflows the JSON parser's recursion limit.
        async def run():
            with pytest.raises(ProtocolError, match="nests too deeply"):
                await read_message(_feed_reader(_frame(b"[" * 100_000)))

        asyncio.run(run())

    @given(_frames)
    def test_fuzz_only_protocol_errors_escape(self, data):
        async def run():
            try:
                message = await read_message(_feed_reader(data))
            except (ProtocolError, asyncio.IncompleteReadError):
                return
            assert isinstance(message, dict)

        asyncio.run(run())

    def test_eof_mid_frame_is_incomplete_read(self):
        async def run():
            frame = struct.pack(">I", 100) + b"short"
            with pytest.raises(asyncio.IncompleteReadError):
                await read_message(_feed_reader(frame))

        asyncio.run(run())


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(now=0.0)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.0)    # burst exhausted
        assert not bucket.try_acquire(now=0.5)    # half a token back
        assert bucket.try_acquire(now=1.6)        # refilled past 1.0
        assert not bucket.try_acquire(now=1.6)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(now=100.0)
        assert bucket.try_acquire(now=100.0)
        assert not bucket.try_acquire(now=100.0)

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now=10.0)
        assert bucket.try_acquire(now=10.0)
        assert not bucket.try_acquire(now=5.0)    # skew ignored

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestQuotaTable:
    def test_rate_zero_always_admits(self):
        table = QuotaTable(rate=0.0, burst=1.0)
        assert all(table.admit("c", now=0.0) for _ in range(100))
        assert len(table) == 0

    def test_clients_are_independent(self):
        table = QuotaTable(rate=0.001, burst=1.0)
        assert table.admit("a", now=0.0)
        assert not table.admit("a", now=0.0)
        assert table.admit("b", now=0.0)   # b's bucket is fresh
        assert len(table) == 2


class TestAdmissionController:
    def test_depth_bound_and_release(self):
        ctrl = AdmissionController(max_depth=2)
        assert ctrl.admit("a") is None
        assert ctrl.admit("a") is None
        assert ctrl.admit("a") == "queue_full"
        ctrl.release()
        assert ctrl.admit("a") is None
        assert ctrl.peak_in_flight == 2

    def test_draining_shed_first(self):
        ctrl = AdmissionController(max_depth=1, quota_rate=0.001,
                                   quota_burst=1.0)
        ctrl.draining = True
        assert ctrl.admit("a") == "draining"
        assert ctrl.in_flight == 0

    def test_quota_checked_before_depth(self):
        ctrl = AdmissionController(max_depth=8, quota_rate=0.001,
                                   quota_burst=1.0)
        assert ctrl.admit("noisy", now=0.0) is None
        assert ctrl.admit("noisy", now=0.0) == "quota"
        assert ctrl.in_flight == 1

    def test_release_underflow_raises(self):
        ctrl = AdmissionController(max_depth=1)
        with pytest.raises(RuntimeError):
            ctrl.release()


@pytest.fixture
def fast_zoo(monkeypatch):
    """Alias three registry keys onto the cheapest zoo network so
    LRU tests compile in milliseconds-scale, not minutes."""
    mlp = registry_mod.BENCH_NETWORKS["mnist_mlp"]
    for alias in ("zoo_a", "zoo_b", "zoo_c"):
        monkeypatch.setitem(registry_mod.BENCH_NETWORKS, alias, mlp)
    return ("zoo_a", "zoo_b", "zoo_c")


class TestModelRegistry:
    def test_warm_up_precompiles_and_pins(self, fast_zoo):
        with ModelRegistry(warm=("zoo_a",), max_loaded=2,
                           phase_length=4) as registry:
            registry.warm_up()
            assert registry.loaded() == ("zoo_a",)
            registry.get("zoo_b")
            registry.get("zoo_c")   # evicts zoo_b, never warm zoo_a
            assert set(registry.loaded()) == {"zoo_a", "zoo_c"}
            assert registry.evictions == 1

    def test_lru_order_refreshes_on_get(self, fast_zoo):
        with ModelRegistry(warm=(), max_loaded=2,
                           phase_length=4) as registry:
            registry.get("zoo_a")
            registry.get("zoo_b")
            registry.get("zoo_a")   # zoo_a now MRU
            registry.get("zoo_c")   # evicts zoo_b
            assert set(registry.loaded()) == {"zoo_a", "zoo_c"}

    def test_evicted_runtime_is_closed(self, fast_zoo):
        from repro.runtime import BatcherClosedError
        with ModelRegistry(warm=(), max_loaded=1,
                           phase_length=4) as registry:
            first = registry.get("zoo_a")
            registry.get("zoo_b")
            with pytest.raises(BatcherClosedError):
                first.infer(np.zeros((1, 1, 28, 28)))

    def test_resident_never_loads_but_refreshes_lru(self, fast_zoo):
        with ModelRegistry(warm=(), max_loaded=2,
                           phase_length=4) as registry:
            assert registry.resident("zoo_a") is None
            assert registry.loaded() == ()
            first = registry.get("zoo_a")
            registry.get("zoo_b")
            assert registry.resident("zoo_a") is first   # zoo_a now MRU
            assert registry.resident("not_a_network") is None
            registry.get("zoo_c")                        # evicts zoo_b
            assert set(registry.loaded()) == {"zoo_a", "zoo_c"}
            assert registry.loads == 3
        with pytest.raises(RuntimeError, match="closed"):
            registry.resident("zoo_a")

    def test_loaded_runtime_has_its_pool_started(self, fast_zoo):
        # The server's event loop submits requests, so the registry
        # spawns a model's workers when it loads it, on its own thread.
        from repro.runtime import RuntimeConfig
        with ModelRegistry(warm=(), max_loaded=1, phase_length=4,
                           runtime_config=RuntimeConfig(
                               workers=1, backend="process"),
                           ) as registry:
            runtime = registry.get("zoo_a")
            assert runtime.pool._executor is not None
            future = runtime.submit(np.zeros((1, 1, 28, 28)))
            assert future.result(timeout=30).shape == (1, 10)

    def test_unknown_model_raises_keyerror(self):
        registry = ModelRegistry(warm=(), max_loaded=1)
        with pytest.raises(KeyError, match="unknown model"):
            registry.get("not_a_network")
        with pytest.raises(KeyError, match="unknown warm"):
            ModelRegistry(warm=("not_a_network",))

    def test_closed_registry_refuses_lookups(self, fast_zoo):
        registry = ModelRegistry(warm=(), max_loaded=1, phase_length=4)
        registry.close()
        registry.close()   # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            registry.get("zoo_a")

    def test_snapshots_cover_resident_models(self, fast_zoo):
        with ModelRegistry(warm=(), max_loaded=2,
                           phase_length=4) as registry:
            runtime = registry.get("zoo_a")
            runtime.infer(np.zeros((1, 1, 28, 28)))
            snapshots = registry.snapshots()
            assert set(snapshots) == {"zoo_a"}
            assert snapshots["zoo_a"].requests == 1

    def test_results_identical_to_direct_runtime(self, fast_zoo):
        # Serving through the registry must not change any bits.
        from repro.simulator import SCConfig, SCNetwork
        from repro.runtime import InferenceRuntime
        from repro.networks import mnist_mlp
        x = np.random.default_rng(3).uniform(0, 1, (2, 1, 28, 28))
        with ModelRegistry(warm=(), max_loaded=1, phase_length=4,
                           seed=0) as registry:
            served = registry.get("zoo_a").infer(x)
        sc = SCNetwork.from_trained(mnist_mlp(seed=0),
                                    SCConfig(phase_length=4))
        with InferenceRuntime(sc, (1, 28, 28)) as direct:
            np.testing.assert_array_equal(served, direct.infer(x))


class TestServeConfig:
    def test_single_model_string_normalized(self):
        config = ServeConfig(models="mnist_mlp")
        assert config.models == ("mnist_mlp",)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(quota_rate=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(default_deadline_s=0.0)
        with pytest.raises(ValueError):
            ServeConfig(models=("mnist_mlp", "lenet5"), max_loaded=1)

    def test_runtime_template_threaded_through(self):
        config = ServeConfig(runtime=RuntimeConfig(workers=3))
        assert config.runtime.workers == 3
