"""Per-rule fixtures for ``repro.analysis``: every rule must fire on a
seeded violation and stay quiet on the fixed form."""

import textwrap

import pytest

from repro.analysis import Analyzer, SourceFile
from repro.analysis.core import PARSE_ERROR_ID
from repro.analysis.rules import RULES
from repro.analysis.rules.async_blocking import AsyncBlockingRule
from repro.analysis.rules.cold_import import ColdImportRule
from repro.analysis.rules.data_rebind import DataRebindRule
from repro.analysis.rules.lock_guard import LockGuardRule
from repro.analysis.rules.typed_raise import TypedRaiseRule
from repro.analysis.rules.wire_consts import WireConstsRule


def _run(rule, text, module, filename="fixture.py"):
    source = SourceFile(filename, textwrap.dedent(text), module=module)
    findings = list(rule.check(source))
    findings.extend(rule.finalize())
    return [f for f in findings if not source.is_suppressed(f)]


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------
def test_registry_ids_match_classes():
    assert set(RULES) == {"layer-dag", "lock-guard", "async-blocking",
                          "typed-raise", "wire-consts", "data-rebind",
                          "cold-import"}
    for rule_id, rule_cls in RULES.items():
        assert rule_cls.id == rule_id
        assert rule_cls.summary


# ---------------------------------------------------------------------
# lock-guard
# ---------------------------------------------------------------------
GUARDED_CLASS = """
    class Engine:
        def __init__(self):
            self._queues = {}  # repro: guarded-by[_lock]
            self._lock = object()

        def depth(self):
            {body}
"""


def _lock_fixture(body):
    return GUARDED_CLASS.replace("{body}", body)


class TestLockGuard:
    def test_unlocked_read_flags(self):
        findings = _run(LockGuardRule(),
                        _lock_fixture("return len(self._queues)"),
                        module="repro.runtime.engine")
        assert len(findings) == 1
        assert "_queues" in findings[0].message

    def test_locked_read_passes(self):
        body = ("with self._lock:\n"
                "                return len(self._queues)")
        assert _run(LockGuardRule(), _lock_fixture(body),
                    module="repro.runtime.engine") == []

    def test_wrong_lock_flags(self):
        body = ("with self._other:\n"
                "                return len(self._queues)")
        assert _run(LockGuardRule(), _lock_fixture(body),
                    module="repro.runtime.engine")

    def test_lock_held_annotation_exempts(self):
        text = """
            class Engine:
                def __init__(self):
                    self._queues = {}  # repro: guarded-by[_lock]
                    self._lock = object()

                def depth(self):  # repro: lock-held
                    return len(self._queues)
        """
        assert _run(LockGuardRule(), text,
                    module="repro.runtime.engine") == []

    def test_closure_does_not_inherit_lock(self):
        text = """
            class Engine:
                def __init__(self):
                    self._queues = {}  # repro: guarded-by[_lock]
                    self._lock = object()

                def deferred(self):
                    with self._lock:
                        def thunk():
                            return len(self._queues)
                    return thunk
        """
        assert _run(LockGuardRule(), text, module="repro.runtime.engine")

    def test_unlocked_write_flags(self):
        findings = _run(LockGuardRule(),
                        _lock_fixture("self._queues = {}"),
                        module="repro.runtime.engine")
        assert findings and "write" in findings[0].message

    def test_unregistered_attribute_passes(self):
        assert _run(LockGuardRule(),
                    _lock_fixture("return self._rounds"),
                    module="repro.runtime.engine") == []


# ---------------------------------------------------------------------
# async-blocking
# ---------------------------------------------------------------------
class TestAsyncBlocking:
    def test_blocking_call_in_async_def_flags(self):
        text = """
            import time
            async def handler():
                time.sleep(1.0)
        """
        findings = _run(AsyncBlockingRule(), text,
                        module="repro.gateway.server")
        assert findings and "time.sleep" in findings[0].message

    def test_durability_close_flags(self):
        text = """
            class Server:
                async def drain(self):
                    self.durability.close(self.engine)
        """
        assert _run(AsyncBlockingRule(), text,
                    module="repro.gateway.server")

    def test_round_call_flags(self):
        text = """
            class Server:
                async def loop(self):
                    return self.engine.run_round()
        """
        assert _run(AsyncBlockingRule(), text,
                    module="repro.gateway.server")

    def test_run_in_executor_reference_passes(self):
        text = """
            import asyncio
            class Server:
                async def drain(self):
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        None, self.durability.close, self.engine)
        """
        assert _run(AsyncBlockingRule(), text,
                    module="repro.gateway.server") == []

    def test_sync_def_passes(self):
        text = """
            import time
            def handler():
                time.sleep(1.0)
        """
        assert _run(AsyncBlockingRule(), text,
                    module="repro.gateway.server") == []

    def test_outside_gateway_passes(self):
        text = """
            import time
            async def handler():
                time.sleep(1.0)
        """
        assert _run(AsyncBlockingRule(), text,
                    module="repro.serving.fleet") == []

    def test_nested_sync_def_escapes(self):
        text = """
            import os
            async def handler():
                def thunk():
                    os.fsync(3)
                return thunk
        """
        assert _run(AsyncBlockingRule(), text,
                    module="repro.gateway.server") == []


# ---------------------------------------------------------------------
# typed-raise
# ---------------------------------------------------------------------
class TestTypedRaise:
    @pytest.mark.parametrize("builtin", ["RuntimeError", "ValueError"])
    def test_bare_builtin_flags(self, builtin):
        text = f"""
            def check(n):
                if n < 0:
                    raise {builtin}("bad")
        """
        findings = _run(TypedRaiseRule(), text, module="repro.wal.log")
        assert findings and builtin in findings[0].message

    def test_bare_reference_raise_flags(self):
        assert _run(TypedRaiseRule(), "raise ValueError\n",
                    module="repro.serving.fleet")

    def test_typed_raise_passes(self):
        text = """
            from repro.errors import ConfigError
            def check(n):
                if n < 0:
                    raise ConfigError("bad")
        """
        assert _run(TypedRaiseRule(), text, module="repro.wal.log") == []

    def test_reraise_and_bound_name_pass(self):
        text = """
            def check(exc):
                try:
                    raise exc
                except ValueError:
                    raise
        """
        assert _run(TypedRaiseRule(), text, module="repro.wal.log") == []

    def test_outside_scope_passes(self):
        assert _run(TypedRaiseRule(), "raise ValueError('x')\n",
                    module="repro.eval.metrics") == []


# ---------------------------------------------------------------------
# data-rebind
# ---------------------------------------------------------------------
class TestDataRebind:
    @pytest.mark.parametrize("statement, attr", [
        ("param.data[0] = 1.0", "data"),
        ("param.data[rows][:, 0] = 1.0", "data"),
        ("param.data -= lr * grad", "data"),
        ("norm.running_mean *= 0.9", "running_mean"),
        ("norm.running_var[mask] += 1.0", "running_var"),
        ("node.token_embeddings[:] = tokens", "token_embeddings"),
        ("a, layer.dense.weight.data[0] = 1.0, 2.0", "data"),
        ("np.add(x, y, out=param.data)", "data"),
        ("np.matmul(x, y, out=self.weight.data[:rows])", "data"),
        ("np.copyto(node.token_embeddings, tokens)", "token_embeddings"),
        ("copyto(param.data[0], row)", "data"),
    ])
    def test_in_place_store_flags(self, statement, attr):
        findings = _run(DataRebindRule(), statement + "\n",
                        module="repro.adaptation.token_update")
        assert len(findings) == 1 and f"'.{attr}'" in findings[0].message

    @pytest.mark.parametrize("statement", [
        "param.data = param.data - lr * grad",
        "norm.running_mean = 0.9 * norm.running_mean + 0.1 * mean",
        "node.token_embeddings = tensor.data.copy()",
        "out = param.data[rows]",
        "grads[param.data.shape] = 1",
        "local = param.data.copy()\nlocal[0] += 1.0",
        "np.add(param.data, 1.0, out=scratch)",
        "np.copyto(scratch, param.data)",
        "self.grad += grad",
        "tensor.data: np.ndarray = fresh",
    ])
    def test_rebinding_and_reads_pass(self, statement):
        assert _run(DataRebindRule(), statement + "\n",
                    module="repro.nn.optim") == []

    def test_outside_src_passes(self):
        assert _run(DataRebindRule(), "tensor.data += 0.5\n",
                    module="test_gnn_sliced") == []


# ---------------------------------------------------------------------
# cold-import
# ---------------------------------------------------------------------
class TestColdImport:
    @pytest.mark.parametrize("text, name", [
        ("import networkx as nx\n", "networkx"),
        ("from scipy.sparse import csr_matrix\n", "scipy.sparse"),
        ("import os, yaml\n", "yaml"),
        ("try:\n    import orjson\nexcept ImportError:\n    orjson = None\n",
         "orjson"),
        ("class Lazy:\n    import torch\n", "torch"),
        ("if TYPE_CHECKING:\n    pass\nelse:\n    import networkx\n",
         "networkx"),
    ])
    def test_import_time_third_party_flags(self, text, name):
        findings = _run(ColdImportRule(), text, module="repro.kg.analysis")
        assert len(findings) == 1 and f"'{name}'" in findings[0].message

    @pytest.mark.parametrize("text", [
        "def to_networkx(kg):\n    import networkx as nx\n    return nx\n",
        "async def probe():\n    from aiohttp import web\n",
        "class A:\n    def f(self):\n        import networkx\n",
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import networkx as nx\n",
        "import typing\nif typing.TYPE_CHECKING:\n    import networkx\n",
        "import numpy.linalg\nfrom numpy.lib import stride_tricks\n",
        "from ..errors import ConfigError\nfrom . import graph\n",
        "import repro.errors\nfrom repro.kg import graph\n",
        "from __future__ import annotations\nimport json, multiprocessing.shared_memory\n",
    ])
    def test_deferred_typing_and_first_party_pass(self, text):
        assert _run(ColdImportRule(), text, module="repro.kg.analysis") == []

    def test_outside_src_passes(self):
        assert _run(ColdImportRule(), "import hypothesis\n",
                    module="test_bpe") == []


# ---------------------------------------------------------------------
# wire-consts
# ---------------------------------------------------------------------
GOOD_BINFRAME = """
    import struct
    BIN_MAGIC = b"\\xb7\\xf3"
    BIN_HEADER = struct.Struct("<2sBBHHII")
"""

GOOD_PROTOCOL = """
    import struct
    PROTOCOL_VERSION = 2
    SUPPORTED_VERSIONS = (1, 2)
    MAX_FRAME_BYTES = 32 * 1024 * 1024
    _HEADER = struct.Struct(">I")
    OPS = ("ingest", "scores", "attach", "detach", "stats", "shutdown")
    FLAG_RESPONSE = 0x0001

    def encode_frame(payload, codec="json", max_bytes=MAX_FRAME_BYTES):
        pass

    def read_frame(reader, max_bytes=MAX_FRAME_BYTES):
        _check_length(0, max_bytes)
        _check_binary_lengths(None, max_bytes)

    def write_frame(writer, payload, codec="json",
                    max_bytes=MAX_FRAME_BYTES):
        pass

    def recv_frame(sock, max_bytes=MAX_FRAME_BYTES):
        _check_length(0, max_bytes)
        _check_binary_lengths(None, max_bytes)

    def send_frame(sock, payload, codec="json", max_bytes=MAX_FRAME_BYTES):
        pass

    def _check_length(length, max_bytes):
        pass

    def _check_binary_lengths(header, max_bytes):
        pass
"""


def _wire(binframe_text=GOOD_BINFRAME, protocol_text=GOOD_PROTOCOL):
    rule = WireConstsRule()
    findings = []
    for text, module in ((binframe_text, "repro.utils.binframe"),
                         (protocol_text, "repro.gateway.protocol")):
        if text is None:
            continue
        source = SourceFile("fixture.py", textwrap.dedent(text),
                            module=module)
        findings.extend(rule.check(source))
    findings.extend(rule.finalize())
    return findings


class TestWireConsts:
    def test_consistent_modules_pass(self):
        assert _wire() == []

    def test_wrong_header_size_flags(self):
        bad = GOOD_BINFRAME.replace("<2sBBHHII", "<2sBBHHI")
        assert any("16" in f.message for f in _wire(binframe_text=bad))

    def test_big_endian_binary_header_flags(self):
        bad = GOOD_BINFRAME.replace("<2sBBHHII", ">2sBBHHII")
        assert any("little-endian" in f.message
                   for f in _wire(binframe_text=bad))

    def test_magic_length_flags(self):
        bad = GOOD_BINFRAME.replace('b"\\xb7\\xf3"', 'b"\\xb7"')
        assert _wire(binframe_text=bad)

    def test_json_prefix_format_flags(self):
        bad = GOOD_PROTOCOL.replace('">I"', '"<I"')
        assert any("_HEADER" in f.message for f in _wire(protocol_text=bad))

    def test_oversized_cap_flags(self):
        bad = GOOD_PROTOCOL.replace("32 * 1024 * 1024",
                                    "8 * 1024 * 1024 * 1024")
        assert any("u32" in f.message for f in _wire(protocol_text=bad))

    def test_magic_disambiguation_flags(self):
        # A magic whose first byte a JSON length prefix could produce.
        bad = GOOD_BINFRAME.replace('b"\\xb7\\xf3"', 'b"\\x01\\xf3"')
        assert any("disambiguation" in f.message
                   for f in _wire(binframe_text=bad))

    def test_missing_max_bytes_default_flags(self):
        bad = GOOD_PROTOCOL.replace(
            "def send_frame(sock, payload, codec=\"json\", "
            "max_bytes=MAX_FRAME_BYTES):",
            "def send_frame(sock, payload, codec=\"json\"):")
        assert any("send_frame" in f.message for f in _wire(protocol_text=bad))

    def test_reader_without_guard_flags(self):
        bad = GOOD_PROTOCOL.replace(
            "def recv_frame(sock, max_bytes=MAX_FRAME_BYTES):\n"
            "        _check_length(0, max_bytes)\n"
            "        _check_binary_lengths(None, max_bytes)",
            "def recv_frame(sock, max_bytes=MAX_FRAME_BYTES):\n"
            "        pass")
        assert any("recv_frame" in f.message and "_check_length" in f.message
                   for f in _wire(protocol_text=bad))

    def test_version_not_supported_flags(self):
        bad = GOOD_PROTOCOL.replace("PROTOCOL_VERSION = 2",
                                    "PROTOCOL_VERSION = 3")
        assert any("SUPPORTED_VERSIONS" in f.message
                   for f in _wire(protocol_text=bad))

    def test_single_module_skips_cross_checks(self):
        # Linting one side alone must not report the other as missing.
        assert _wire(protocol_text=None) == []


# ---------------------------------------------------------------------
# analyzer plumbing
# ---------------------------------------------------------------------
class TestAnalyzer:
    def test_parse_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = Analyzer().run([tmp_path])
        assert [f.rule for f in findings] == [PARSE_ERROR_ID]

    def test_suppression_covers_own_and_next_line(self):
        text = textwrap.dedent("""
            # repro: allow[typed-raise] fixture
            raise ValueError("above")
            raise ValueError("inline")  # repro: allow[typed-raise]
            raise ValueError("naked")
        """)
        source = SourceFile("fixture.py", text, module="repro.wal.x")
        rule = TypedRaiseRule()
        kept = [f for f in rule.check(source)
                if not source.is_suppressed(f)]
        assert len(kept) == 1
        assert "naked" in source.text.splitlines()[kept[0].line - 1]

    def test_marker_inside_string_is_not_a_suppression(self):
        text = ('note = "# repro: allow[typed-raise]"\n'
                'raise ValueError("real")\n')
        source = SourceFile("fixture.py", text, module="repro.wal.x")
        rule = TypedRaiseRule()
        kept = [f for f in rule.check(source)
                if not source.is_suppressed(f)]
        assert len(kept) == 1

    def test_rule_filter(self, tmp_path):
        mod = tmp_path / "fixture.py"
        mod.write_text("x = 1\n")
        findings = Analyzer([RULES["wire-consts"]]).run([mod])
        assert findings == []

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            Analyzer().run(["no/such/dir"])

    def test_findings_are_sorted_and_deduplicated_paths(self, tmp_path):
        a = tmp_path / "a.py"
        a.write_text("raise ValueError('x')\n")
        findings = Analyzer().run([tmp_path, a])
        assert findings == sorted(findings)
