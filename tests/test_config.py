"""The knob table: environment spellings, the accessors, and the README copy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import config
from repro.exceptions import ConfigurationError

README = Path(__file__).resolve().parents[1] / "README.md"

#: A valid, non-default environment spelling of every knob and its parsed value.
SPELLINGS = {
    "backend": ("LOOP", "loop"),
    "model_cache_size": (" 3 ", 3),
    "refresh_policy": ("Eager", "eager"),
    "wal_sync": ("off", "off"),
    "max_request_bytes": ("unbounded", None),
    "deadline_seconds": ("2.5", 2.5),
    "microbatch_window_ms": ("1.5", 1.5),
    "microbatch_max_rows": ("16", 16),
    "max_rows_per_request": ("100", 100),
    "max_sessions": ("3", 3),
    "max_queued_requests": ("8", 8),
    "obs_enabled": ("off", False),
    "trace_sample": ("0.5", 0.5),
    "query_provenance": ("no", False),
    "scenario_transport": ("TCP", "tcp"),
    "scenario_digest_check": ("0", False),
}


def _run(script: str, env: dict):
    """Run ``script`` in a fresh interpreter whose only ``REPRO_*`` variables
    are ``env``; returns the JSON it prints."""
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    clean["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], env={**clean, **env},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_knob_has_a_non_default_spelling():
    assert list(SPELLINGS) == list(config.KNOBS)
    for name, (_, parsed) in SPELLINGS.items():
        assert parsed != config.KNOBS[name].default, name


def test_environment_spellings_are_what_get_returns():
    env = {config.KNOBS[name].env: raw for name, (raw, _) in SPELLINGS.items()}
    got = _run(
        "import json\n"
        "from repro import config\n"
        "print(json.dumps({name: config.get(name) for name in config.KNOBS}))\n",
        env,
    )
    assert got == {name: parsed for name, (_, parsed) in SPELLINGS.items()}


def test_garbage_environment_fails_at_first_get_naming_the_knob():
    env = {knob.env: "bogus!" for knob in config.KNOBS.values()}
    outcome = _run(
        "import json\n"
        "import repro\n"
        "from repro import config\n"
        "from repro.exceptions import ConfigurationError\n"
        "errors = {}\n"
        "for name in config.KNOBS:\n"
        "    try:\n"
        "        config.get(name)\n"
        "    except ConfigurationError as exc:\n"
        "        errors[name] = str(exc)\n"
        "body_ran = False\n"
        "try:\n"
        "    with config.override('backend', 'loop'):\n"
        "        body_ran = True\n"
        "except ConfigurationError:\n"
        "    pass\n"
        "print(json.dumps({'errors': errors, 'body_ran': body_ran}))\n",
        env,
    )
    assert sorted(outcome["errors"]) == sorted(config.KNOBS)
    for name, message in outcome["errors"].items():
        assert name in message and config.KNOBS[name].env in message, message
    # override() parses the previous value on entry, so it fails there.
    assert outcome["body_ran"] is False


def test_set_returns_the_parsed_previous_value():
    previous = _run(
        "import json\n"
        "from repro import config\n"
        "print(json.dumps([\n"
        "    config.set('model_cache_size', 3),\n"
        "    config.set('max_request_bytes', 4096),\n"
        "    config.set('backend', 'vectorized'),\n"
        "]))\n",
        {
            "REPRO_ONLINE_CACHE_SIZE": "4",
            "REPRO_MAX_REQUEST_BYTES": "none",
            "REPRO_BACKEND": "LOOP",
        },
    )
    assert previous == [4, None, "loop"]


class TestAccessors:
    def test_override_restores_and_resolve_defers(self):
        before = config.get("refresh_policy")
        with config.override("refresh_policy", "EAGER"):
            assert config.get("refresh_policy") == "eager"
            assert config.resolve("refresh_policy") == "eager"
            assert config.resolve("refresh_policy", None) == "eager"
            assert config.resolve("refresh_policy", "lazy") == "lazy"
        assert config.get("refresh_policy") == before

    def test_none_is_a_value_only_of_nullable_knobs(self):
        assert config.resolve("max_sessions", None) is None
        assert config.resolve("model_cache_size", 0) is None
        assert config.resolve("microbatch_max_rows", None) == config.get(
            "microbatch_max_rows"
        )

    def test_unknown_knob_and_bad_values_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown knob"):
            config.get("warp_speed")
        with pytest.raises(ConfigurationError, match="microbatch_max_rows"):
            config.resolve("microbatch_max_rows", 0)
        with pytest.raises(ConfigurationError, match="microbatch_max_rows"):
            config.resolve("microbatch_max_rows", True)


def test_readme_knob_table_matches_the_table():
    rows = re.findall(
        r"^\| `([a-z_]+)` \| `(REPRO_[A-Z_]+)` \| `([^`]+)` \|",
        README.read_text(), flags=re.MULTILINE,
    )
    assert rows == [
        (knob.name, knob.env, str(knob.default))
        for knob in config.KNOBS.values()
    ]
