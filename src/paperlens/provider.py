"""Provider-agnostic chat-completion client with budgeting, retry, and a stub.

Two HTTP dialects are built in (an OpenAI-style ``/chat/completions`` body
and a Gemini-style ``:generateContent`` body) plus a deterministic offline
stub that replays fixture files, used for all tests and dry runs. No request
is ever issued whose estimated token total exceeds the configured context
window; the budget check happens before any network activity.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .atomic import PaperlensError, append_jsonl, read_text, write_atomic

if TYPE_CHECKING:
    import requests

    from .prompts import PromptBundle

logger = logging.getLogger(__name__)

# Crude chars-per-token heuristic with a 10% safety margin; it only needs to
# be conservative enough to prevent context overflows, not provider-exact.
_CHARS_PER_TOKEN = 4
_BACKOFF_CAP_S = 60.0
_BACKOFF_JITTER = 0.25


class ProviderError(PaperlensError):
    """Base class for provider failures."""


class ContextOverflow(ProviderError):
    """The request would not fit the provider's context window."""

    def __init__(self, required: int, available: int, hint: str = "") -> None:
        self.required = required
        self.available = available
        message = f"request needs ~{required} tokens but the context window allows {available}"
        if hint:
            message += f"; {hint}"
        super().__init__(message)


class AuthError(ProviderError):
    """Missing or rejected API credentials."""


class TransientError(ProviderError):
    """A retryable transport failure (timeout, rate limit, 5xx)."""


class ExhaustedRetries(ProviderError):
    """All retry attempts failed; the last transport error is its message and its cause."""

    def __init__(self, attempts: int, last_error: Exception) -> None:
        self.attempts = attempts
        super().__init__(f"gave up after {attempts} attempts: {last_error}")


class IncompleteReply(ProviderError):
    """The reply names a finish reason other than a natural stop.

    Not transient: at a fixed temperature a retry stops in the same place.
    """

    def __init__(self, reason: object, output_tokens: int) -> None:
        super().__init__(
            f"reply stopped early (finish reason {reason!r}, {output_tokens} output tokens); "
            "a smaller --batch-size asks for less in one reply"
        )


class StubFixtureMissing(ProviderError):
    """The stub provider has no canned response for a request key."""


#: Every value ``ProviderConfig.dialect`` takes.
DIALECTS = ("openai", "gemini", "stub")


@dataclass(frozen=True)
class ProviderConfig:
    """Connection, budgeting, and pacing settings for one provider."""

    dialect: str = "openai"  # one of DIALECTS
    base_url: str = "https://api.openai.com/v1"
    model_name: str = "gpt-4.1"
    api_key_env: str = "PAPERLENS_API_KEY"
    context_window_tokens: int = 1_000_000
    max_output_tokens: int = 65_536
    max_retries: int = 5
    backoff_base_ms: int = 500
    max_inflight: int = 2
    # Sampling settings are provider-specific and unreported upstream;
    # temperature 0 keeps repeated runs as comparable as possible.
    temperature: float = 0.0
    timeout_s: float = 600.0
    fixtures_dir: str | None = None

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise ValueError(f"dialect must be one of {', '.join(DIALECTS)}, got {self.dialect!r}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.context_window_tokens < self.max_output_tokens:
            raise ValueError("context_window_tokens must be >= max_output_tokens")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ms <= 0:
            raise ValueError("backoff_base_ms must be positive")
        if not 0 < self.timeout_s < float("inf"):  # NaN too; requests overflows on inf
            raise ValueError(f"timeout_s must be positive and finite, got {self.timeout_s!r}")
        if not 0 <= self.temperature < float("inf"):  # NaN too
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")


@dataclass
class ModelResponse:
    """One completed provider call."""

    text: str
    input_tokens: int = 0
    output_tokens: int = 0
    attempts: int = 1


def estimate_tokens(text: str) -> int:
    """Conservative token estimate: ceil(chars / 4) plus a 10% margin.

    Monotone in input length; empty text estimates to zero.
    """
    return tokens_for_chars(len(text))


def tokens_for_chars(char_count: int) -> int:
    """``estimate_tokens`` of any text of ``char_count`` characters; in integers, so it is subadditive."""
    tokens = -(-char_count // _CHARS_PER_TOKEN)
    return -(-11 * tokens // 10)


def stub_key(kind: str, payload_refs: tuple[str, ...] | list[str]) -> str:
    """Stable fixture key for a request: hash of (kind, sorted payload refs)."""
    material = kind + "|" + "|".join(sorted(str(r) for r in payload_refs))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def request_body(config: ProviderConfig, prompt: str) -> tuple[str, dict]:
    """The URL and JSON body of the request that sends ``prompt`` under ``config``.

    The gemini dialect posts to ``:generateContent``; every other dialect,
    the stub included, has the ``/chat/completions`` shape. ``HttpChatClient``
    posts exactly this, adding only the credential header.
    """
    base_url = config.base_url.rstrip("/")
    if config.dialect == "gemini":
        return f"{base_url}/models/{config.model_name}:generateContent", {
            "contents": [{"role": "user", "parts": [{"text": prompt}]}],
            "generationConfig": {
                "maxOutputTokens": config.max_output_tokens,
                "temperature": config.temperature,
            },
        }
    return f"{base_url}/chat/completions", {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "max_tokens": config.max_output_tokens,
        "temperature": config.temperature,
    }


def request_digest(config: ProviderConfig, doc_ids: tuple[str, ...], prompt: str) -> str:
    """sha256 identifying one annotation batch's request: a JSON array of its
    doc ids, the dialect, and ``request_body`` of the prompt sent ahead of
    the documents.

    So any change to what the request sends changes the digest, and
    settings that only pace or authenticate a call leave it as it is.
    """
    material = json.dumps([doc_ids, config.dialect, request_body(config, prompt)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ChatClient:
    """Shared budgeting, pacing, retry, and audit logic for all providers."""

    def __init__(self, config: ProviderConfig, audit_path: str | Path | None = None) -> None:
        self.config = config
        self.audit_path = Path(audit_path) if audit_path else None
        self._gate = threading.BoundedSemaphore(config.max_inflight)
        self._lock = threading.Lock()
        self._inflight = 0
        self.inflight_high_water = 0
        self.calls = 0

    def complete(self, bundle: "PromptBundle", payload_text: str = "") -> ModelResponse:
        """Send ``bundle.text`` as it is, or followed by a non-empty ``payload_text``
        as ``bundle.with_payload`` joins it, and return the response.

        Raises ContextOverflow before any network call when the estimated
        total would not fit; retries transient transport failures with
        exponential backoff and jitter up to ``max_retries``.
        """
        prompt = bundle.with_payload(payload_text, refs=bundle.payload_refs).text

        prompt_tokens = estimate_tokens(prompt)
        required = prompt_tokens + self.config.max_output_tokens
        if required > self.config.context_window_tokens:
            raise ContextOverflow(required, self.config.context_window_tokens)

        key = f"{bundle.kind.value}-{stub_key(bundle.kind.value, bundle.payload_refs)}"
        for attempt in range(self.config.max_retries + 1):
            attempts = attempt + 1
            try:
                with self._gate:
                    with self._lock:
                        self._inflight += 1
                        self.inflight_high_water = max(self.inflight_high_water, self._inflight)
                        self.calls += 1
                    try:
                        response = self._send(prompt, key)
                    finally:
                        with self._lock:
                            self._inflight -= 1
                break
            except TransientError as exc:
                if attempt == self.config.max_retries:
                    raise ExhaustedRetries(attempts, exc) from exc
                delay = self._backoff_delay(attempt)
                logger.warning(
                    "transient provider failure (attempt %d/%d), retrying in %.0f ms: %s",
                    attempts,
                    self.config.max_retries + 1,
                    delay * 1000,
                    exc,
                )
                time.sleep(delay)

        response.attempts = attempts
        if not response.input_tokens:
            response.input_tokens = prompt_tokens
        if not response.output_tokens:
            response.output_tokens = estimate_tokens(response.text)
        self._audit(bundle.kind.value, key, prompt, response)
        return response

    def _backoff_delay(self, attempt: int) -> float:
        base = self.config.backoff_base_ms / 1000.0 * (2**attempt)
        jitter = random.uniform(1 - _BACKOFF_JITTER, 1 + _BACKOFF_JITTER)
        return min(base * jitter, _BACKOFF_CAP_S)

    def _audit(self, kind: str, key: str, prompt: str, response: ModelResponse) -> None:
        if self.audit_path is None:
            return
        # Bodies are recorded for traceability; credentials never are.
        entry = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "kind": kind,
            "key": key,
            "model": self.config.model_name,
            "request_body": prompt,
            "response_body": response.text,
            "input_tokens": response.input_tokens,
            "output_tokens": response.output_tokens,
            "attempts": response.attempts,
        }
        with self._lock:
            append_jsonl(self.audit_path, entry)

    def _send(self, prompt: str, key: str) -> ModelResponse:
        raise NotImplementedError


class HttpChatClient(ChatClient):
    """HTTP chat-completion client speaking one of the built-in dialects."""

    def __init__(
        self,
        config: ProviderConfig,
        audit_path: str | Path | None = None,
        session: requests.Session | None = None,
    ) -> None:
        super().__init__(config, audit_path)
        if session is None:
            # Loaded here, not at module level: only the HTTP dialects need
            # the HTTP stack, and every offline command would pay for it.
            import requests

            session = requests.Session()
        self._session = session

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise AuthError(
                f"no API key found in environment variable {self.config.api_key_env!r}"
            )
        return key

    def _send(self, prompt: str, key: str) -> ModelResponse:
        api_key = self._api_key()
        if self.config.dialect == "gemini":
            headers = {"x-goog-api-key": api_key, "Content-Type": "application/json"}
        else:
            headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        url, body = request_body(self.config, prompt)

        import requests

        try:
            resp = self._session.post(url, json=body, headers=headers, timeout=self.config.timeout_s)
        except requests.RequestException as exc:
            raise TransientError(f"transport failure: {exc}") from exc

        if resp.status_code in (401, 403):
            raise AuthError(f"provider rejected credentials (HTTP {resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}")

        try:
            data = resp.json()
        except ValueError as exc:
            raise TransientError(f"non-JSON response body: {exc}") from exc

        return self._parse_body(data)

    def _parse_body(self, data: dict) -> ModelResponse:
        """The reply's text and token counts; a null usage object or count reads as 0.

        A reply whose finish reason is other than a natural stop raises
        ``IncompleteReply``; a body without the field is read as complete.
        A Gemini body with no candidates (a blocked prompt) names its ``blockReason``.
        Text that UTF-8 cannot encode is malformed, like any other bad value.
        """
        try:
            if self.config.dialect == "gemini":
                if not data.get("candidates"):
                    feedback = data.get("promptFeedback") or {}
                    raise ProviderError(f"prompt blocked (blockReason {feedback['blockReason']!r})"
                                        if "blockReason" in feedback else "reply has no candidates")
                reply = data["candidates"][0]
                reason_field, stopped = "finishReason", "STOP"
                usage = data.get("usageMetadata") or {}
                counts = usage.get("promptTokenCount"), usage.get("candidatesTokenCount")
            else:
                reply = data["choices"][0]
                reason_field, stopped = "finish_reason", "stop"
                usage = data.get("usage") or {}
                counts = usage.get("prompt_tokens"), usage.get("completion_tokens")
            input_tokens, output_tokens = (int(count or 0) for count in counts)
            if reason_field in reply and reply[reason_field] != stopped:
                raise IncompleteReply(reply[reason_field], output_tokens)
            if self.config.dialect == "gemini":
                if "content" not in reply:
                    raise ProviderError(f"malformed response body: candidate has no content "
                                        f"(finishReason {reply.get(reason_field)!r})")
                text = "".join(p.get("text", "") for p in reply["content"]["parts"])
            else:
                text = reply["message"]["content"] or ""
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not a string")
            text.encode("utf-8")  # a lone surrogate could never be written out
            return ModelResponse(text, input_tokens, output_tokens)
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            raise ProviderError(f"malformed response body: {exc}") from exc


@dataclass
class StubScript:
    """Scripted failures for the stub: how often each request key fails.

    A count of -1 means the key fails on every attempt.
    """

    fail_counts: dict[str, int] = field(default_factory=dict)

    def should_fail(self, key: str) -> bool:
        remaining = self.fail_counts.get(key, 0)
        if remaining == 0:
            return False
        if remaining > 0:
            self.fail_counts[key] = remaining - 1
        return True


class StubChatClient(ChatClient):
    """Deterministic offline provider replaying fixture files.

    Responses live in a fixtures directory as ``{kind}-{key}.txt`` where
    ``key`` is ``stub_key(kind, payload_refs)``. Identical inputs always
    yield identical responses.
    """

    def __init__(
        self,
        config: ProviderConfig,
        audit_path: str | Path | None = None,
        script: StubScript | None = None,
    ) -> None:
        super().__init__(config, audit_path)
        self.fixtures_dir = Path(config.fixtures_dir) if config.fixtures_dir else None
        self.script = script or StubScript()
        self.send_delay_s = 0.0  # test hook for concurrency assertions

    def _send(self, prompt: str, key: str) -> ModelResponse:
        if self.send_delay_s:
            time.sleep(self.send_delay_s)
        if self.script.should_fail(key):
            raise TransientError(f"scripted failure for key {key}")
        if self.fixtures_dir is not None:
            path = self.fixtures_dir / f"{key}.txt"
            if path.exists():
                return ModelResponse(text=read_text(path, ProviderError))
        raise StubFixtureMissing(
            f"no stub fixture {key}.txt in {self.fixtures_dir or '(no fixtures dir)'}"
        )


def write_stub_fixture(
    fixtures_dir: str | Path,
    kind: str,
    payload_refs: tuple[str, ...] | list[str],
    text: str,
) -> Path:
    """Create a canned stub response for (kind, payload refs); returns its path."""
    fixtures_dir = Path(fixtures_dir)
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    path = fixtures_dir / f"{kind}-{stub_key(kind, payload_refs)}.txt"
    write_atomic(path, text)
    return path


def make_client(config: ProviderConfig, audit_path: str | Path | None = None) -> ChatClient:
    """Build the client matching the configured dialect."""
    if config.dialect == "stub":
        return StubChatClient(config, audit_path)
    return HttpChatClient(config, audit_path)
