"""The hosted-judge transport, `provider.http_transport`, against a scripted
HTTP stub on the loopback interface, and the package's import hygiene."""

from __future__ import annotations

import ast
import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import blindeval
from blindeval import provider
from blindeval.cli import main
from blindeval.errors import TransportError
from blindeval.fixtures import DEMO_ROLES, demo_corpus
from blindeval.provider import ProviderConfig, TranscriptStore, complete
from blindeval.store import write_json, write_text


def _reply(content, status=200) -> tuple[int, bytes]:
    return status, json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


OK = _reply("Clarity: T1=4")
SLOW = "slow"    # sends nothing before the client's timeout
STALL = "stall"  # sends the headers, then no body before the client's timeout
CUT = "cut"      # announces more body bytes than it sends, then closes

#: path -> (replies in order, the last one repeating; attempts expected;
#: the job's outcome: "done", or a fragment of its single-line failure)
SCENARIOS = {
    "ok": ([OK], 1, "done"),
    "429-then-200": ([(429, b"slow down"), OK], 2, "done"),
    "503-then-200": ([(503, b"busy"), OK], 2, "done"),
    "400": ([(400, b"bad request")], 1, "status 400 after 1 attempt(s): bad request"),
    "401": ([(401, b"no key")], 1, "status 401 after 1 attempt(s): no key"),
    # a proxy's error page: its line ends must not split the job's line
    "502-html": ([(502, b"<html>\n<body>Bad gateway</body>\n</html>")], 4,
                 "status 502 after 4 attempt(s): <html> <body>Bad gateway</body> </html>"),
    "html": ([(200, b"<html><body>Proxy error</body></html>")], 1,
             "malformed completion body: Expecting value: line 1 column 1 (char 0); "
             "the body begins '<html><body>Proxy error</body></html>'"),
    "null-content": ([_reply(None)], 1, "malformed completion body"),
    "not-utf8": ([(200, '{"choices": [{"message": {"content": "café"}}]}'.encode("latin-1"))],
                 1, "malformed completion body: Expecting value: line 1 column 1 (char 0); "
                    "the body begins \"reply body is not UTF-8: 'utf-8' codec can't decode "
                    "byte 0xe9 in position 41"),
    "slow": ([SLOW], 4, "status None after 4 attempt(s): transport exception"),
    "stalled-body": ([STALL], 4, "status None after 4 attempt(s): transport exception"),
    "cut": ([CUT], 4, "status None after 4 attempt(s): transport exception"),
}


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        stub = self.server
        with stub.lock:
            seen = [path for path, _ in stub.requests].count(self.path)
            stub.requests.append((self.path, self.headers.get("Authorization")))
        replies = stub.script[self.path]
        reply = replies[min(seen, len(replies) - 1)]
        if reply in (SLOW, STALL):
            if reply == STALL:
                status, body = OK
                self._send(status, b"", length=len(body))
            stub.release.wait(10)  # until the test ends, long after the client's timeout
        elif reply == CUT:
            status, body = OK
            self._send(status, body[:10], length=len(body))
        else:
            self._send(*reply)

    def _send(self, status, body, length=None):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Stub(http.server.ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every handler thread

    def __init__(self, script):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script = script
        self.requests: list[tuple[str, str | None]] = []
        self.lock = threading.Lock()
        self.release = threading.Event()

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.server_port}/{path}"

    def attempts(self, path: str) -> int:
        return [p for p, _ in self.requests].count("/" + path)


@pytest.fixture
def stub(monkeypatch):
    # an environment proxy would otherwise take the loopback requests
    for var in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(var, raising=False)
    server = _Stub({"/" + path: replies for path, (replies, _, _) in SCENARIOS.items()})
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    serving.start()
    yield server
    server.release.set()
    server.shutdown()
    serving.join(5)
    server.server_close()
    assert not serving.is_alive()


@pytest.fixture(scope="module")
def one_case_run(tmp_path_factory):
    """A blinded run directory with one case and one reader role."""
    tmp = tmp_path_factory.mktemp("transport")
    target = tmp / "run"
    assert main(["init", str(target)]) == 0
    case_file = write_json(tmp / "case1.src.json", demo_corpus().get("case1"))
    assert main(["-C", str(target), "case", "add", str(case_file)]) == 0
    write_text(target / "personas" / "R1.txt", DEMO_ROLES[0].persona_text + "\n")
    assert main(["-C", str(target), "blind"]) == 0
    return target


def _stub_run(one_case_run, tmp_path, stub, scenario):
    target = tmp_path / "run"
    shutil.copytree(one_case_run, target)
    timeout = 0.05 if scenario in ("slow", "stalled-body") else 5.0
    write_json(target / "providers.json", {"stub": {
        "endpoint": stub.url(scenario), "model": "m", "backoff_base": 0, "timeout": timeout,
        "credential_env": ""}})
    return target


def _only_error_line(err: str, fragment: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert fragment in lines[0], err


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_evaluate_against_the_stub(one_case_run, tmp_path, stub, capsys, scenario):
    _, expected_attempts, outcome = SCENARIOS[scenario]
    target = _stub_run(one_case_run, tmp_path, stub, scenario)
    capsys.readouterr()
    code = main(["-C", str(target), "evaluate", "--models", "stub"])
    out, err = capsys.readouterr()
    assert stub.attempts(scenario) == expected_attempts
    assert "Traceback" not in out + err
    if outcome == "done":
        assert code == 0 and err == ""
        assert "case1_R1_stub: done\n" in out
        [transcript] = (target / "transcripts").iterdir()
        assert json.loads(transcript.read_text(encoding="utf-8"))["attempts"] == expected_attempts
    else:
        assert code == 1
        _only_error_line(err, "1 evaluation job(s) failed; rerun with --resume")
        dispatch, job_line, summary = out.splitlines()
        assert dispatch.startswith("dispatch: ") and summary.startswith("0 record(s) done, ")
        assert job_line.startswith("case1_R1_stub: failed (TransportError: ")
        assert outcome in job_line
        assert not any((target / "transcripts").iterdir())
        assert not any((target / "records").iterdir())


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scaffold_start_against_the_stub(one_case_run, tmp_path, stub, capsys, scenario):
    _, expected_attempts, outcome = SCENARIOS[scenario]
    target = _stub_run(one_case_run, tmp_path, stub, scenario)
    capsys.readouterr()
    code = main(["-C", str(target), "scaffold", "start", "--case", "case1", "--model", "stub"])
    out, err = capsys.readouterr()
    assert stub.attempts(scenario) == expected_attempts
    if outcome == "done":
        assert code == 0 and err == ""
        assert out == "session case1-stub-01 at stage Diagnose (1 turn(s))\n"
    else:
        assert code == 1 and out == ""
        _only_error_line(err, outcome)
        assert err.startswith("error: TransportError: provider 'stub' ")
        assert not any((target / "sessions").iterdir())


def test_the_bearer_token_is_sent_only_when_the_credential_is_set(one_case_run, tmp_path, stub,
                                                                  monkeypatch):
    target = _stub_run(one_case_run, tmp_path, stub, "ok")
    assert main(["-C", str(target), "evaluate", "--models", "stub"]) == 0
    write_json(target / "providers.json", {"stub": {
        "endpoint": stub.url("ok"), "model": "m", "credential_env": "STUB_KEY"}})
    monkeypatch.setenv("STUB_KEY", "sk-test")
    assert main(["-C", str(target), "scaffold", "start", "--case", "case1",
                 "--model", "stub"]) == 0
    monkeypatch.delenv("STUB_KEY")
    assert main(["-C", str(target), "scaffold", "start", "--case", "case1",
                 "--model", "stub"]) == 1
    assert stub.requests == [("/ok", None), ("/ok", "Bearer sk-test")]


@pytest.mark.parametrize("replies, max_retries, sleeps, status", [
    ([(503, b"busy"), (502, b"bad gateway"), OK], 3, [0.5, 1.0], 200),
    ([(429, b"slow down")], 2, [0.5, 1.0], 429),
])
def test_backoff_doubles_per_retry_over_the_real_transport(tmp_path, stub, replies, max_retries,
                                                           sleeps, status):
    stub.script["/backoff"] = replies
    config = ProviderConfig(provider_id="stub", endpoint=stub.url("backoff"), model="m",
                            credential_env="", backoff_base=0.5, max_retries=max_retries,
                            timeout=5.0)
    slept = []
    messages = [{"role": "user", "content": "hello"}]
    store = TranscriptStore(tmp_path / "transcripts")
    if status == 200:
        content, transcript = complete(config, messages, store, sleep=slept.append)
        assert content == "Clarity: T1=4" and transcript.attempts == 3
    else:
        with pytest.raises(TransportError) as info:
            complete(config, messages, store, sleep=slept.append)
        assert (info.value.status, info.value.attempts) == (status, max_retries + 1)
    assert slept == sleeps
    assert stub.attempts("backoff") == len(sleeps) + 1


def test_an_endpoint_that_is_not_an_http_url_is_a_config_error(one_case_run, tmp_path, capsys,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(provider, "http_transport", lambda *args: calls.append(args))
    target = tmp_path / "run"
    shutil.copytree(one_case_run, target)
    for endpoint in ("127.0.0.1:9/v1", "localhost:9/v1", "ftp://127.0.0.1/v1", "http:///v1"):
        write_json(target / "providers.json", {"stub": {"endpoint": endpoint, "model": "m",
                                                        "credential_env": ""}})
        for verb in (["evaluate", "--models", "stub"],
                     ["scaffold", "start", "--case", "case1", "--model", "stub"]):
            capsys.readouterr()
            assert main(["-C", str(target), *verb]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            _only_error_line(err, f"error: ProviderConfigError: provider 'stub' in "
                                  f"{target / 'providers.json'}: endpoint {endpoint!r} "
                                  "is not an http(s) URL")
    assert calls == []
    assert not any((target / "transcripts").iterdir())


# --- import hygiene ------------------------------------------------------------


PACKAGE_DIR = Path(blindeval.__file__).parent


def test_the_package_imports_only_the_standard_library():
    outside = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"blindeval"}}
    assert not outside


def test_importing_the_cli_loads_no_http_client():
    # urllib.request brings ssl, http.client and email: ~2.3 MB of RSS on
    # CPython 3.11 that only a hosted-judge call needs
    probe = "import sys, blindeval.cli; print(sorted({'ssl', 'urllib.request'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=60, cwd=PACKAGE_DIR.parent,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert result.stdout == "[]\n"
