"""Uniform chat-completion client plus a deterministic mock.

All three hosted models behind the harness speak the same de facto wire
protocol (JSON body with model / messages / temperature, first choice's
message content as the reply), so one adapter covers them.  Every call,
real or mocked, is transcripted before its response is returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import ProviderConfigError, TransportError
from .persona import DIMENSIONS
from .rng import Splitmix64, mix_seed
from .store import from_doc, read_json, to_doc, write_json

RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class ProviderConfig:
    provider_id: str
    endpoint: str
    model: str
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 60.0
    credential_env: str | None = None  # None derives <PROVIDER_ID>_API_KEY; "" means none needed
    backoff_base: float = 1.0
    max_concurrent: int = 4            # jobs in flight per provider, per grid (judge.run_grid)

    def __post_init__(self):
        # providers.json may write the temperature as 0 or 0.0; both are one
        # setting, sent and transcripted as a float
        object.__setattr__(self, "temperature", float(self.temperature))

    def credential_variable(self) -> str:
        if self.credential_env is None:
            return re.sub(r"[^A-Z0-9]", "_", self.provider_id.upper()) + "_API_KEY"
        return self.credential_env


@dataclass(frozen=True)
class Transcript:
    call_id: str
    provider_id: str
    request_digest: str
    request_text: str
    response_text: str
    latency_s: float
    attempts: int
    timestamp: str
    temperature: float


class TranscriptStore:
    """Append-only directory of transcripts, one JSON file per call."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._reserved: set[str] = set()

    def path_for(self, call_id: str) -> Path:
        return self.directory / f"{call_id}.json"

    def assign_call_id(self, provider_id: str, request_digest: str) -> str:
        """First free name for this call; reserved in memory so concurrent
        callers cannot race to it (the CLI lock keeps a run directory to
        one process)."""
        base = f"{provider_id}-{request_digest[:16]}"
        with self._lock:
            call_id = base
            n = 1
            while call_id in self._reserved or self.path_for(call_id).exists():
                n += 1
                call_id = f"{base}-{n}"
            self._reserved.add(call_id)
            return call_id

    def save(self, transcript: Transcript) -> Path:
        return write_json(self.path_for(transcript.call_id), to_doc(transcript))

    def load(self, call_id: str) -> Transcript:
        path = self.path_for(call_id)
        return from_doc(Transcript, read_json(path), path)


def canonical_request(config: ProviderConfig, messages: list[dict[str, str]]) -> str:
    payload = {"model": config.model, "messages": messages, "temperature": config.temperature}
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def http_transport(config: ProviderConfig, request_text: str, api_key: str | None):
    """POST the payload; returns (status_code, body_text)."""
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = requests.post(config.endpoint, data=request_text.encode("utf-8"),
                             headers=headers, timeout=config.timeout)
    except requests.RequestException as exc:
        return None, f"transport exception: {exc}"
    return resp.status_code, resp.text


def complete(
    config: ProviderConfig,
    messages: list[dict[str, str]],
    transport=None,
    store: TranscriptStore | None = None,
    sleep=time.sleep,
) -> tuple[str, Transcript]:
    """Send a chat completion, retrying 429/5xx with exponential backoff.

    The response content is returned verbatim.  The transcript is written
    (when a store is given) before the response is handed back.
    """
    if not messages:
        raise ProviderConfigError("messages must be non-empty")
    api_key = None
    var = config.credential_variable()
    if var:
        api_key = os.environ.get(var)
        if api_key is None:
            raise ProviderConfigError(
                f"provider {config.provider_id!r} needs credential env var {var} (not set)")
    if transport is None:
        transport = http_transport

    request_text = canonical_request(config, messages)
    digest = hashlib.sha256(request_text.encode("utf-8")).hexdigest()

    start = time.monotonic()
    attempts = 0
    status, body = None, ""
    while attempts <= config.max_retries:
        attempts += 1
        status, body = transport(config, request_text, api_key)
        if status == 200:
            break
        retryable = status is None or status in RETRYABLE_STATUSES
        if not retryable or attempts > config.max_retries:
            raise TransportError(
                f"provider {config.provider_id!r} failed with status {status} "
                f"after {attempts} attempt(s): {body[:200]}",
                status=status, attempts=attempts)
        sleep(config.backoff_base * 2 ** (attempts - 1))
    if status != 200:
        raise TransportError(
            f"provider {config.provider_id!r} exhausted {attempts} attempt(s); last status {status}",
            status=status, attempts=attempts)

    try:
        content = json.loads(body)["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(
            f"provider {config.provider_id!r} returned a malformed completion body: {exc}",
            status=status, attempts=attempts)

    latency = time.monotonic() - start
    call_id = (store.assign_call_id(config.provider_id, digest)
               if store else f"{config.provider_id}-{digest[:16]}")
    transcript = Transcript(
        call_id=call_id,
        provider_id=config.provider_id,
        request_digest=digest,
        request_text=request_text,
        response_text=content,
        latency_s=latency,
        attempts=attempts,
        timestamp=datetime.now(timezone.utc).isoformat(),
        temperature=config.temperature,
    )
    if store:
        store.save(transcript)
    return content, transcript


#: OpenAI-compatible chat endpoints for the hosted models; providers.json
#: in a run directory can override or extend these.
KNOWN_PROVIDERS = {
    "gpt": ProviderConfig(
        provider_id="gpt",
        endpoint="https://api.openai.com/v1/chat/completions",
        model="gpt-5-pro"),
    "gemini": ProviderConfig(
        provider_id="gemini",
        endpoint="https://generativelanguage.googleapis.com/v1beta/openai/chat/completions",
        model="gemini-2.5-pro"),
    "deepseek": ProviderConfig(
        provider_id="deepseek",
        endpoint="https://api.deepseek.com/chat/completions",
        model="deepseek-chat"),
}


# --- deterministic mock -------------------------------------------------------

def mock_config(provider_id: str) -> ProviderConfig:
    return ProviderConfig(
        provider_id=provider_id,
        endpoint="mock://" + provider_id,
        model=f"mock-{provider_id}",
        credential_env="",      # mocks need no credential
        backoff_base=0.0,
    )


def make_mock_transport(seed: int):
    """Transport stub producing mock judge answers; 200 every time."""

    def transport(config: ProviderConfig, request_text: str, api_key):
        user_text = _last_user_content(request_text)
        reply = mock_judge_response(seed, user_text)
        body = json.dumps({"choices": [{"message": {"content": reply}}]}, ensure_ascii=False)
        return 200, body

    return transport


def _last_user_content(request_text: str) -> str:
    payload = json.loads(request_text)
    user = [m["content"] for m in payload.get("messages", []) if m.get("role") == "user"]
    return user[-1] if user else request_text


_OPENERS = (
    "Reading the versions side by side, my reactions differ quite a bit.",
    "I went through all the versions twice before settling on my ratings.",
    "Some versions read naturally to me while others required real effort.",
    "My impressions formed quickly, though I re-checked the harder passages.",
)

_CLAUSES = (
    "the phrasing maps cleanly onto how I reason in clinic",
    "a few terms felt opaque until I reread the surrounding sentence",
    "the causal chain is easy to follow",
    "I had to guess at what the imagery was doing",
    "the terminology anchors the concept well",
    "the sentence order mirrors the argument, which helps",
)


def infer_candidate_count(prompt_text: str) -> int:
    labels = [int(m) for m in re.findall(r"(?m)^Translation (\d+):", prompt_text)]
    return max(labels) if labels else 4


def mock_judge_response(seed: int, request: str) -> str:
    """Deterministic questionnaire answer for a rendered evaluation prompt.

    A pure function of (seed, digest(request)).  Every 10th seed omits the
    fenced score block and instead carries prose score lines, exercising
    the fallback parser.
    """
    k = infer_candidate_count(request)
    digest = hashlib.sha256(request.encode("utf-8")).hexdigest()
    rng = Splitmix64(mix_seed(seed, "mock-judge", digest))
    scores = {dim: [1 + rng.below(5) for _ in range(k)] for dim in DIMENSIONS}

    headings = (
        "1. Degree of understanding and points of confusion:",
        "2. Concept restatement and meaning construction",
        "3. Cognitive load",
        "4. Confidence in understanding",
        "5. Translation preference",
        "6. Transferability of theory to clinical practice",
    )
    heading_dims = ("Clarity", None, "CognitiveLoad", "Confidence", "Preference", "Transferability")
    prose_fallback = seed % 10 == 0

    lines = [_OPENERS[rng.below(len(_OPENERS))], ""]
    for heading, dim in zip(headings, heading_dims):
        lines.append(heading)
        if dim is None:
            for label in range(1, k + 1):
                lines.append(f"Translation {label} says, in my own words, that "
                             f"{_CLAUSES[rng.below(len(_CLAUSES))]}.")
        else:
            for label in range(1, k + 1):
                lines.append(f"For translation {label}, {_CLAUSES[rng.below(len(_CLAUSES))]}.")
            if prose_fallback:
                pairs = ", ".join(f"T{label}={scores[dim][label - 1]}" for label in range(1, k + 1))
                lines.append(f"{_pretty_dim(dim)}: {pairs}")
        lines.append("")

    if not prose_fallback:
        lines.append("```scores")
        for dim in DIMENSIONS:
            for label in range(1, k + 1):
                lines.append(f"{dim}[{label}]={scores[dim][label - 1]}")
        lines.append("```")
    return "\n".join(lines).rstrip() + "\n"


def _pretty_dim(dim: str) -> str:
    return "Cognitive load" if dim == "CognitiveLoad" else dim


def make_scaffold_mock_transport(seed: int):
    """Transport stub for refinement-session turns: a deterministic
    translation-shaped reply rather than a questionnaire answer."""

    def transport(config: ProviderConfig, request_text: str, api_key):
        digest = hashlib.sha256(request_text.encode("utf-8")).hexdigest()
        rng = Splitmix64(mix_seed(seed, "mock-scaffold", digest))
        reply = (
            "Mock rendering: the passage describes how seasonal qi moves and what "
            "happens when that movement is blocked. "
            f"Reasoning: {_CLAUSES[rng.below(len(_CLAUSES))]}; "
            f"additionally, {_CLAUSES[rng.below(len(_CLAUSES))]}.")
        body = json.dumps({"choices": [{"message": {"content": reply}}]}, ensure_ascii=False)
        return 200, body

    return transport
