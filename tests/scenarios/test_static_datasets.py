"""Static datasets: a CSV file pinned by its sha256 feeds the generators.

A spec's ``dataset`` may be ``PATH#sha256=HEX`` instead of a registered
name.  The file's complete rows then play the part a registered dataset's
rows play, so user data replays through every transport against the cold
oracle.  Written with ``write_csv`` (``repr`` cells round-trip floats
exactly), ``load_dataset("sn", size=200)`` must generate the very traces
that ``dataset="sn", size=200`` does.
"""

import hashlib

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.io import write_csv
from repro.exceptions import ScenarioError
from repro.scenarios import ScenarioSpec, generate_trace, get, replay
from repro.scenarios.generators import _STEP_ARRAYS

SIZE = 200
#: One built-in per generator that reads a dataset.
BASES = ("steady_stream", "gentle_churn", "analytic_probe")


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    path = tmp_path_factory.mktemp("static") / "sn.csv"
    write_csv(load_dataset("sn", size=SIZE), path)
    return f"{path}#sha256={hashlib.sha256(path.read_bytes()).hexdigest()}"


def _variant(base: str, dataset: str, **params) -> ScenarioSpec:
    spec = get(base).to_dict()
    spec["name"] = f"static_{base}"
    spec["params"].update(dataset=dataset, size=SIZE, **params)
    return ScenarioSpec.from_dict(spec)


@pytest.mark.parametrize("base", BASES)
def test_pinned_csv_generates_the_registered_datasets_trace(base, pinned):
    static = generate_trace(_variant(base, pinned))
    registered = generate_trace(_variant(base, "sn"))
    assert len(static.steps) == len(registered.steps)
    for ours, theirs in zip(static.steps, registered.steps):
        assert (ours.kind, ours.round_index, ours.n_store) == (
            theirs.kind, theirs.round_index, theirs.n_store
        )
        for name, _ in _STEP_ARRAYS:
            mine, other = getattr(ours, name), getattr(theirs, name)
            assert (mine is None) == (other is None), name
            if mine is not None:
                np.testing.assert_array_equal(mine, other, err_msg=name)
        assert ours.statements == theirs.statements
    # The spec carries the path and the pin, so the digest tells them apart.
    assert static.digest() != registered.digest()


@pytest.mark.parametrize(
    "base,transport",
    [(base, "engine") for base in BASES]
    + [("gentle_churn", "serve"), ("gentle_churn", "tcp")],
)
def test_pinned_csv_replays_against_the_cold_oracle(base, transport, pinned):
    report = replay(_variant(base, pinned), transport=transport,
                    isolate_obs=True)
    assert report.verified is True
    assert report.max_abs_diff == 0.0


def test_a_wrong_pin_names_both_digests(pinned):
    path, _, digest = pinned.partition("#sha256=")
    wrong = "0" * 64
    with pytest.raises(ScenarioError) as error:
        generate_trace(_variant("steady_stream", f"{path}#sha256={wrong}"))
    assert digest in str(error.value) and wrong in str(error.value)


def test_a_missing_file_names_the_path(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(ScenarioError, match="absent.csv"):
        generate_trace(_variant("steady_stream", f"{path}#sha256={'0' * 64}"))


def test_a_size_beyond_the_complete_rows_is_refused(tmp_path):
    path = tmp_path / "dirty.csv"
    relation = load_dataset("sn", size=SIZE)
    dirty = relation.raw.copy()
    dirty[::4, 1] = np.nan  # a quarter of the rows are incomplete
    write_csv(relation.with_values(dirty), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    dataset = f"{path}#sha256={digest}"
    with pytest.raises(ScenarioError, match="exceeds the 150 complete rows"):
        generate_trace(_variant("steady_stream", dataset))
    # Without a size the complete rows are the data, in file order.
    spec = _variant("steady_stream", dataset).to_dict()
    spec["params"]["size"] = None
    fit = generate_trace(ScenarioSpec.from_dict(spec)).steps[0]
    complete = relation.raw[np.arange(SIZE) % 4 != 0]
    np.testing.assert_array_equal(
        fit.append_rows, complete[: len(fit.append_rows)]
    )
