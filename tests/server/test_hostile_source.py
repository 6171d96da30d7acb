"""Hostile inline MiniC over ``POST /v1/jobs`` fails as a typed error.

Deeply nested source used to fail its job with an interpreter
``RecursionError``; the parser's nesting bound makes the job fail with
a ``CompileError`` reason instead, and the server keeps serving.
"""

import pytest

from repro.perf.loadgen import HostedServer, submit_and_wait
from repro.server.app import ServerConfig
from repro.server.quotas import QuotaSpec

HOSTILE = {
    "parens": "int main() { return " + "(" * 5000 + "1" + ")" * 5000 + "; }",
    "blocks": "void main() " + "{" * 3000 + "}" * 3000,
    "ifs": "void main() { int x; x = 1; " + "if (x) " * 3000 + "x = 2; }",
    "unary": "int main() { return " + "- " * 5000 + "1; }",
    "chain": "int main() { return " + "+".join(["1"] * 20000) + "; }",
}


@pytest.fixture(scope="module")
def address(tmp_path_factory):
    root = tmp_path_factory.mktemp("server")
    config = ServerConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=root / "cache",
        shards=1,
        concurrency=1,
        quota=QuotaSpec(rate=500.0, burst=1000),
    )
    with HostedServer(config) as server:
        yield server.address


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_source_job_fails_with_compile_error(address, name):
    spec = {"source": HOSTILE[name], "encoding": "nibble", "name": f"hostile-{name}"}
    outcome, _, data = submit_and_wait(address, spec, "alpha")
    assert outcome == "failed"
    assert data["error"].startswith("CompileError: ")
    assert "nesting deeper than" in data["error"]
    assert "RecursionError" not in data["error"]


def test_server_still_serves_after_hostile_jobs(address):
    spec = {"source": "void main() { print_int(7); }", "encoding": "nibble",
            "name": "after-hostile"}
    outcome, _, data = submit_and_wait(address, spec, "alpha")
    assert outcome == "completed", data
