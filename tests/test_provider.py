"""Token estimation, budgeting, retry, stub determinism, and HTTP dialects."""

import json
import logging
import sys
import threading

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from conftest import batch_output_text, make_record, make_stub, run_python, write_corpus
from paperlens.corpus import ingest, save_manifest
from paperlens.prompts import PromptBundle, PromptKind
from paperlens.provider import (
    AuthError,
    ContextOverflow,
    ExhaustedRetries,
    HttpChatClient,
    IncompleteReply,
    ProviderConfig,
    ProviderError,
    StubFixtureMissing,
    TransientError,
    estimate_tokens,
    make_client,
    stub_key,
    tokens_for_chars,
    write_stub_fixture,
)


def bundle_for(refs=(), payload="", kind=PromptKind.ANNOTATION, instructions="do the task"):
    text = "\n\n".join(part for part in (instructions, payload) if part)
    return PromptBundle(kind=kind, text=text, payload_refs=tuple(refs))


# --- estimate_tokens ---------------------------------------------------------


def test_estimate_empty_is_zero():
    assert estimate_tokens("") == 0


def test_estimate_4000_chars():
    # ceil(4000 / 4) * 1.10 = 1100
    assert estimate_tokens("x" * 4000) == 1100


def test_estimate_concat_monotone():
    a, b = "alpha " * 10, "beta " * 25
    assert estimate_tokens(a + b) >= max(estimate_tokens(a), estimate_tokens(b))


@given(st.text(max_size=500), st.text(max_size=500))
def test_estimate_monotone_property(a, b):
    assert estimate_tokens(a + b) >= estimate_tokens(a)
    assert estimate_tokens(a) >= 0


@given(st.text(max_size=2000))
def test_tokens_for_chars_matches_estimate(s):
    assert tokens_for_chars(len(s)) == estimate_tokens(s)


# --- stub provider -----------------------------------------------------------


def test_stub_replays_fixture(tmp_path):
    write_stub_fixture(tmp_path, "annotation", ["doc2", "doc1"], "canned answer")
    client = make_stub(tmp_path)
    response = client.complete(bundle_for(["doc1", "doc2"]), "payload")
    assert response.text == "canned answer"
    assert response.attempts == 1


def test_stub_key_order_independent():
    assert stub_key("annotation", ["b", "a"]) == stub_key("annotation", ["a", "b"])
    assert stub_key("annotation", ["a"]) != stub_key("filter", ["a"])


def test_stub_deterministic(tmp_path):
    write_stub_fixture(tmp_path, "annotation", ["d"], "same thing")
    client = make_stub(tmp_path)
    first = client.complete(bundle_for(["d"]))
    second = client.complete(bundle_for(["d"]))
    assert first.text == second.text == "same thing"


def test_stub_missing_fixture_is_explicit(tmp_path):
    client = make_stub(tmp_path)
    with pytest.raises(StubFixtureMissing):
        client.complete(bundle_for(["nope"]))


def test_oversize_payload_never_reaches_send(tmp_path):
    client = make_stub(tmp_path, context_window_tokens=5000, max_output_tokens=4000)
    with pytest.raises(ContextOverflow) as err:
        client.complete(bundle_for(["d"]), "y" * 100_000)
    assert client.calls == 0
    assert err.value.required > err.value.available == 5000


def test_scripted_failures_then_success(tmp_path, monkeypatch):
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    write_stub_fixture(tmp_path, "annotation", ["d"], "eventually")
    client = make_stub(tmp_path)
    key = f"annotation-{stub_key('annotation', ['d'])}"
    client.script.fail_counts[key] = 2
    response = client.complete(bundle_for(["d"]))
    assert response.text == "eventually"
    assert response.attempts == 3


def test_permanent_failure_exhausts_retries(tmp_path, monkeypatch):
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    client = make_stub(tmp_path, max_retries=2)
    key = f"annotation-{stub_key('annotation', ['d'])}"
    client.script.fail_counts[key] = -1
    with pytest.raises(ExhaustedRetries) as err:
        client.complete(bundle_for(["d"]))
    assert err.value.attempts == 3  # max_retries + 1


def test_retry_log_shows_the_delay_in_milliseconds(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    write_stub_fixture(tmp_path, "annotation", ["d"], "eventually")
    client = make_stub(tmp_path, backoff_base_ms=5)
    client.script.fail_counts[f"annotation-{stub_key('annotation', ['d'])}"] = 1
    with caplog.at_level(logging.WARNING, logger="paperlens.provider"):
        client.complete(bundle_for(["d"]))
    [message] = caplog.messages
    # 5 ms with +-25% jitter: 3.75 to 6.25 ms.
    assert any(f"retrying in {ms} ms" in message for ms in (4, 5, 6)), message


def test_inflight_high_water_respects_limit(tmp_path):
    write_stub_fixture(tmp_path, "annotation", ["d"], "slow")
    client = make_stub(tmp_path, max_inflight=2)
    client.send_delay_s = 0.05
    threads = [
        threading.Thread(target=lambda: client.complete(bundle_for(["d"])))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert client.calls == 8
    assert 1 <= client.inflight_high_water <= 2


def test_audit_log_written_and_redacted(tmp_path, monkeypatch):
    monkeypatch.setenv("SECRET_KEY_VAR", "super-secret-value")
    write_stub_fixture(tmp_path, "annotation", ["d"], "answer")
    audit = tmp_path / "audit.jsonl"
    client = make_stub(tmp_path)
    client.audit_path = audit
    client.complete(bundle_for(["d"]), "payload text")
    entries = [json.loads(line) for line in audit.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["response_body"] == "answer"
    assert "payload text" in entries[0]["request_body"]
    assert "super-secret-value" not in audit.read_text()


def test_audit_log_lines_have_sorted_keys(tmp_path):
    write_stub_fixture(tmp_path, "annotation", ["d"], "answer")
    client = make_stub(tmp_path)
    client.audit_path = tmp_path / "audit.jsonl"
    client.complete(bundle_for(["d"]), "payload")
    entry = json.loads(client.audit_path.read_text(encoding="utf-8"))
    assert list(entry) == sorted(entry)


# --- config validation -------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ValueError):
        ProviderConfig(context_window_tokens=10, max_output_tokens=20)
    with pytest.raises(ValueError):
        ProviderConfig(max_inflight=0)


def test_make_client_dialects(tmp_path):
    assert make_client(ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path)))
    assert make_client(ProviderConfig(dialect="openai"))
    assert make_client(ProviderConfig(dialect="gemini"))
    with pytest.raises(ValueError):
        make_client(ProviderConfig(dialect="smoke-signals"))


# --- HTTP dialects through a fake session ------------------------------------


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body
        self.text = json.dumps(body)

    def json(self):
        return self._body


class FakeSession:
    """Scripted transport: pops one canned response per request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        if not self.responses:
            raise AssertionError("no scripted responses left")
        return self.responses.pop(0)


def openai_ok(text="hi"):
    return FakeResponse(
        200,
        {
            "choices": [{"message": {"content": text}}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 3},
        },
    )


def gemini_ok(text="hi"):
    return FakeResponse(
        200,
        {
            "candidates": [{"content": {"parts": [{"text": text}]}}],
            "usageMetadata": {"promptTokenCount": 12, "candidatesTokenCount": 3},
        },
    )


def http_client(dialect, session, **overrides):
    cfg = ProviderConfig(
        dialect=dialect,
        base_url="https://example.test/v1",
        model_name="test-model",
        api_key_env="TEST_API_KEY",
        max_retries=2,
        backoff_base_ms=1,
        **overrides,
    )
    return HttpChatClient(cfg, session=session)


def test_openai_request_shape(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k-123")
    session = FakeSession([openai_ok("result text")])
    client = http_client("openai", session)
    response = client.complete(bundle_for(["d"]), "payload")
    assert response.text == "result text"
    assert response.input_tokens == 12 and response.output_tokens == 3
    # Serialized, so the order of the keys counts as well.
    assert json.dumps(session.requests) == json.dumps([{
        "url": "https://example.test/v1/chat/completions",
        "json": {
            "model": "test-model",
            "messages": [{"role": "user", "content": "do the task\n\npayload"}],
            "max_tokens": 65536,
            "temperature": 0.0,
        },
        "headers": {"Authorization": "Bearer k-123", "Content-Type": "application/json"},
    }])


def test_gemini_request_shape(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k-456")
    session = FakeSession([gemini_ok("gemini text")])
    client = http_client("gemini", session)
    response = client.complete(bundle_for(["d"]))
    assert response.text == "gemini text"
    assert json.dumps(session.requests) == json.dumps([{
        "url": "https://example.test/v1/models/test-model:generateContent",
        "json": {
            "contents": [{"role": "user", "parts": [{"text": "do the task"}]}],
            "generationConfig": {"maxOutputTokens": 65536, "temperature": 0.0},
        },
        "headers": {"x-goog-api-key": "k-456", "Content-Type": "application/json"},
    }])


def test_missing_api_key_is_auth_error(monkeypatch):
    monkeypatch.delenv("TEST_API_KEY", raising=False)
    client = http_client("openai", FakeSession([]))
    with pytest.raises(AuthError, match="TEST_API_KEY"):
        client.complete(bundle_for(["d"]))


def test_http_401_is_auth_error_no_retry(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    session = FakeSession([FakeResponse(401, {"error": "bad key"})])
    client = http_client("openai", session)
    with pytest.raises(AuthError):
        client.complete(bundle_for(["d"]))
    assert len(session.requests) == 1


def test_http_400_is_a_provider_error_no_retry(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    session = FakeSession([FakeResponse(400, {"error": "bad request"})])
    with pytest.raises(ProviderError, match="HTTP 400") as err:
        http_client("openai", session).complete(bundle_for(["d"]))
    assert type(err.value) is ProviderError
    assert len(session.requests) == 1


class NonJsonResponse(FakeResponse):
    """A 200 whose body is not JSON, as a proxy's error page is."""

    def __init__(self):
        super().__init__(200, None)
        self.text = "<html>bad gateway</html>"

    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


def test_non_json_body_is_retried_until_retries_run_out(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    session = FakeSession([NonJsonResponse() for _ in range(3)])
    with pytest.raises(ExhaustedRetries, match="non-JSON response body") as err:
        http_client("openai", session).complete(bundle_for(["d"]))
    assert err.value.attempts == 3
    assert len(session.requests) == 3


def test_rate_limit_retried_then_succeeds(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(429, {}), FakeResponse(503, {}), openai_ok("ok")])
    client = http_client("openai", session)
    response = client.complete(bundle_for(["d"]))
    assert response.text == "ok"
    assert response.attempts == 3


def test_persistent_5xx_exhausts(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(500, {})] * 3)
    client = http_client("openai", session)
    with pytest.raises(ExhaustedRetries):
        client.complete(bundle_for(["d"]))
    assert len(session.requests) == 3


class RaisingSession(FakeSession):
    """Scripted transport whose script may also hold exceptions to raise."""

    def post(self, url, json=None, headers=None, timeout=None):
        response = super().post(url, json=json, headers=headers, timeout=timeout)
        if isinstance(response, Exception):
            raise response
        return response


def test_transport_failure_retried_then_succeeds(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    session = RaisingSession([requests.ConnectionError("connection reset"), openai_ok("ok")])
    response = http_client("openai", session).complete(bundle_for(["d"]))
    assert response.text == "ok"
    assert response.attempts == 2


def test_persistent_transport_failure_exhausts(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    session = RaisingSession([requests.ConnectionError("connection reset")] * 3)
    with pytest.raises(ExhaustedRetries, match="transport failure") as err:
        http_client("openai", session).complete(bundle_for(["d"]))
    assert err.value.attempts == 3
    assert len(session.requests) == 3


# --- the HTTP stack loads only for an HTTP client ----------------------------

def test_importing_the_package_leaves_requests_unloaded():
    proc = run_python(
        "import sys, paperlens, paperlens.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('requests', 'urllib3', 'charset_normalizer', 'idna')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stub_call_leaves_requests_unloaded(tmp_path):
    write_stub_fixture(tmp_path, "annotation", ["d"], "canned")
    proc = run_python(
        "import sys\n"
        "from paperlens.prompts import PromptBundle, PromptKind\n"
        "from paperlens.provider import ProviderConfig, make_client\n"
        "client = make_client(ProviderConfig(dialect='stub', fixtures_dir=sys.argv[1]))\n"
        "bundle = PromptBundle(kind=PromptKind.ANNOTATION, text='x', payload_refs=('d',))\n"
        "print(client.complete(bundle).text, 'requests' in sys.modules)",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["canned", "False"]


def test_stub_annotate_runs_without_requests(tmp_path):
    docs = {f"paper{i}": f"Body of paper {i}, which explains why claim {i} holds." for i in range(2)}
    manifest = ingest(write_corpus(tmp_path / "src", docs)).manifest
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(manifest, manifest_path)
    doc_ids = [r.doc_id for r in manifest.documents]
    records = [make_record(i, doc_id=doc_ids[i]) for i in range(2)]
    write_stub_fixture(tmp_path / "fixtures", "annotation", doc_ids, batch_output_text(records))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"dialect": "stub", "fixtures_dir": str(tmp_path / "fixtures")}}))
    out = tmp_path / "run"
    proc = run_python(
        "import sys; sys.modules['requests'] = None\n"
        "from paperlens.cli import main\nsys.exit(main(sys.argv[1:]))",
        "annotate", "--config", config, "--manifest", manifest_path, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "batch_0_output.txt").read_text(encoding="utf-8") == batch_output_text(records)


def test_http_client_without_session_needs_requests(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    with pytest.raises(ImportError):
        HttpChatClient(ProviderConfig(dialect="openai"))


@pytest.mark.parametrize("dialect, body", [
    ("openai", {"choices": [{"message": {"content": "hi"}}], "usage": None}),
    ("openai", {"choices": [{"message": {"content": "hi"}}],
                "usage": {"prompt_tokens": None, "completion_tokens": None}}),
    ("gemini", {"candidates": [{"content": {"parts": [{"text": "hi"}]}}], "usageMetadata": None}),
])
def test_null_usage_reads_as_zero_and_is_estimated(monkeypatch, dialect, body):
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = http_client(dialect, FakeSession([FakeResponse(200, body)]))
    response = client.complete(bundle_for(["d"]), "payload")
    assert response.text == "hi"
    assert response.input_tokens > 0 and response.output_tokens > 0


@pytest.mark.parametrize("dialect, body", [
    ("openai", ["not", "an", "object"]),
    ("openai", {"choices": [{"message": {"content": "hi"}}], "usage": [12, 3]}),
    ("openai", {"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": "many"}}),
    ("openai", {"choices": [{"message": {"content": 5}}]}),
    ("gemini", {"candidates": [{"content": {"parts": [{"text": "hi"}]}}], "usageMetadata": "x"}),
    ("gemini", {"candidates": [{"content": {"parts": ["hi"]}}]}),
    ("openai", {"choices": [{"message": {"content": "ok \ud83d"}}]}),
    ("gemini", {"candidates": [{"content": {"parts": [{"text": "ok \ud83d"}]}}]}),
])
def test_malformed_body_is_a_provider_error(monkeypatch, dialect, body):
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = http_client(dialect, FakeSession([FakeResponse(200, body)]))
    with pytest.raises(ProviderError, match="malformed response body"):
        client.complete(bundle_for(["d"]), "payload")


# --- a reply must say it stopped naturally -----------------------------------

CUT_TEXT = "- Title: A reason why\n- Quote: we can now see why the sq"


@pytest.mark.parametrize("dialect, body, reason", [
    ("openai", {"choices": [{"message": {"content": CUT_TEXT}, "finish_reason": "length"}],
                "usage": {"prompt_tokens": 12, "completion_tokens": 4096}}, "'length'"),
    ("openai", {"choices": [{"message": {"content": ""}, "finish_reason": "content_filter"}],
                "usage": {"prompt_tokens": 12, "completion_tokens": 4096}}, "'content_filter'"),
    ("openai", {"choices": [{"message": {"content": CUT_TEXT}, "finish_reason": None}],
                "usage": {"prompt_tokens": 12, "completion_tokens": 4096}}, "None"),
    ("gemini", {"candidates": [{"content": {"parts": [{"text": CUT_TEXT}]}, "finishReason": "MAX_TOKENS"}],
                "usageMetadata": {"promptTokenCount": 12, "candidatesTokenCount": 4096}}, "'MAX_TOKENS'"),
    ("gemini", {"candidates": [{"finishReason": "RECITATION"}],
                "usageMetadata": {"promptTokenCount": 12, "candidatesTokenCount": 4096}}, "'RECITATION'"),
])
def test_reply_that_stopped_early_fails_without_a_retry(monkeypatch, dialect, body, reason):
    monkeypatch.setenv("TEST_API_KEY", "k")
    session = FakeSession([FakeResponse(200, body)])
    with pytest.raises(IncompleteReply) as err:
        http_client(dialect, session).complete(bundle_for(["d"]), "payload")
    assert not isinstance(err.value, TransientError)
    assert len(session.requests) == 1
    message = str(err.value)
    assert f"finish reason {reason}" in message
    assert "4096 output tokens" in message
    assert "smaller --batch-size" in message


@pytest.mark.parametrize("dialect, body", [
    ("openai", {"choices": [{"message": {"content": "hi"}, "finish_reason": "stop"}]}),
    ("gemini", {"candidates": [{"content": {"parts": [{"text": "hi"}]}, "finishReason": "STOP"}]}),
])
def test_reply_that_stopped_naturally_is_read(monkeypatch, dialect, body):
    monkeypatch.setenv("TEST_API_KEY", "k")
    response = http_client(dialect, FakeSession([FakeResponse(200, body)])).complete(bundle_for(["d"]))
    assert response.text == "hi"


@pytest.mark.parametrize("candidate, reason", [
    ({"finishReason": "STOP"}, "'STOP'"),
    ({}, "None"),
])
def test_gemini_candidate_without_content_names_its_finish_reason(monkeypatch, candidate, reason):
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = http_client("gemini", FakeSession([FakeResponse(200, {"candidates": [candidate]})]))
    with pytest.raises(ProviderError, match=f"malformed response body: candidate has no content "
                                            f"\\(finishReason {reason}\\)"):
        client.complete(bundle_for(["d"]))


@pytest.mark.parametrize("body, message", [
    ({"promptFeedback": {"blockReason": "SAFETY"}}, "prompt blocked (blockReason 'SAFETY')"),
    ({"candidates": []}, "no candidates"),
])
def test_gemini_reply_without_candidates_names_its_block_reason(monkeypatch, body, message):
    monkeypatch.setenv("TEST_API_KEY", "k")
    session = FakeSession([FakeResponse(200, body)])
    with pytest.raises(ProviderError) as err:
        http_client("gemini", session).complete(bundle_for(["d"]))
    assert not isinstance(err.value, TransientError)
    assert len(session.requests) == 1
    assert message in str(err.value)
