"""The CI server smoke (tools/server_smoke.py) as a tier-1 test.

The whole smoke runs against an in-thread server configured like the
CI one; a planted stingy quota shows the concurrent-load check fails
when any request is rejected.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.server import ServerConfig, start_in_thread

TOOL_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tools" / "server_smoke.py"
)
spec = importlib.util.spec_from_file_location("server_smoke", TOOL_PATH)
assert spec is not None and spec.loader is not None
server_smoke = importlib.util.module_from_spec(spec)
sys.modules["server_smoke"] = server_smoke
spec.loader.exec_module(server_smoke)


def test_smoke_passes_against_a_ci_configured_server(capsys):
    config = ServerConfig(
        port=0, quota_rate=10000, quota_burst=10000,
        max_inflight=16, max_queue=128,
    )
    with start_in_thread(config) as handle:
        assert server_smoke.main(["--url", handle.url]) == 0
    assert handle.stop() is True
    out = capsys.readouterr().out
    assert "load: 200 warm designs over 8 clients, 0 errors" in out
    assert "server smoke: all checks passed" in out


def test_concurrent_load_fails_when_requests_are_rejected():
    config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
    with start_in_thread(config) as handle:
        with pytest.raises(AssertionError, match="load requests failed"):
            server_smoke.check_concurrent_load(handle.url, "stingy")
    assert handle.stop() is True
