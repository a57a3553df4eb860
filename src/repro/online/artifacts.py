"""Artifact persistence: fitted state as ``.npz`` arrays + a JSON manifest.

An *artifact* is a directory holding exactly two files:

* ``manifest.json`` — the artifact format/version, the kind of object stored
  (``"imputer"`` or ``"engine"``), the constructor parameters needed to
  rebuild it, and the list of array keys it expects;
* ``arrays-<token>.npz`` — every numpy array of the fitted state, saved
  without pickling so artifacts are portable across Python versions.

:func:`write_artifact` / :func:`read_artifact` are the generic primitives;
:func:`save_imputer` / :func:`load_imputer` build the imputer-level layer on
top of them (every :class:`~repro.baselines.base.BaseImputer` participates
through its ``save`` / ``load`` hooks, and subclasses persist extra fitted
state through the ``_artifact_payload`` / ``_restore_payload`` hooks).  The
online engine's :meth:`~repro.online.OnlineImputationEngine.snapshot` uses
the same primitives with ``kind="engine"``.

Restoration is bit-for-bit: arrays round-trip through the ``.npz`` binary
format exactly, so a restored imputer or engine produces imputations
identical to the original.  A corrupted or version-mismatched manifest
raises :class:`~repro.exceptions.ConfigurationError` with a clear message.

Writes are *atomic*: both files are staged into a sibling temp directory,
fsynced, and renamed into place with the manifest rename last — the
commit point.  The arrays land under a unique name recorded in the
manifest's ``arrays_file`` field, so a crash at any byte leaves either the
old artifact or the new one, never a torn mix of the two.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import time
import zipfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import observe_artifact_io

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "write_artifact",
    "read_artifact",
    "save_imputer",
    "load_imputer",
]

#: Identifier written into (and required of) every manifest.
ARTIFACT_FORMAT = "repro-artifact"

#: The artifact schema version, the only one :func:`read_artifact` reads;
#: bumped on incompatible layout changes.  Version 3 added the store
#: section (row and pending counts) and the journal ring knob.
ARTIFACT_VERSION = 3

MANIFEST_FILENAME = "manifest.json"

_PAYLOAD_PREFIX = "payload_"


def _fsync_dir(path: Path) -> None:
    # Directory fsync makes renames durable on POSIX; platforms that
    # refuse to open directories simply skip it.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_staged(target: Path, data: bytes, injector, site: str) -> None:
    raise_after = None
    if injector is not None:
        data, raise_after = injector.intercept_write(site, data)
    with open(target, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if raise_after is not None:
        raise raise_after


def _jsonify(value):
    """Convert numpy scalars/arrays nested in manifest values to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


def write_artifact(
    path: Union[str, Path],
    kind: str,
    manifest: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    *,
    injector=None,
) -> Path:
    """Atomically write one artifact directory and return its path.

    Both files are staged into a sibling temp directory (same filesystem,
    so renames are atomic), fsynced, and renamed in: first the uniquely
    named arrays file, then — the commit point — the manifest that
    references it.  A crash before the manifest rename leaves any previous
    artifact untouched; stale arrays files from overwritten or crashed
    writes are garbage-collected after a successful commit.  ``injector``
    threads a :class:`~repro.reliability.FaultPlan` through the byte
    writes (sites ``artifact.arrays`` / ``artifact.manifest``) and the
    commit rename (``artifact.commit``).
    """
    write_started = time.perf_counter()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    token = os.urandom(4).hex()
    arrays_name = f"arrays-{token}.npz"
    document = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "kind": str(kind),
        "arrays": sorted(arrays),
        "arrays_file": arrays_name,
    }
    document.update(_jsonify(manifest))

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    manifest_bytes = (json.dumps(document, indent=2) + "\n").encode("utf-8")

    staging = path.parent / f".{path.name}.stage-{token}"
    staging.mkdir(parents=True, exist_ok=True)
    try:
        staged_arrays = staging / arrays_name
        staged_manifest = staging / MANIFEST_FILENAME
        _write_staged(staged_arrays, buffer.getvalue(), injector, "artifact.arrays")
        _write_staged(staged_manifest, manifest_bytes, injector, "artifact.manifest")
        os.replace(staged_arrays, path / arrays_name)
        _fsync_dir(path)
        if injector is not None:
            injector.fire("artifact.commit")
        os.replace(staged_manifest, path / MANIFEST_FILENAME)
        _fsync_dir(path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    # Committed: drop arrays files of overwritten versions or torn writes.
    for stale in path.glob("arrays*.npz"):
        if stale.name != arrays_name:
            try:
                stale.unlink()
            except OSError:
                pass
    observe_artifact_io(
        "write",
        time.perf_counter() - write_started,
        len(buffer.getvalue()) + len(manifest_bytes),
    )
    return path


def read_artifact(
    path: Union[str, Path],
    expected_kind: Optional[str] = None,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Read one artifact directory back into ``(manifest, arrays)``.

    Raises :class:`ConfigurationError` when the directory, manifest or array
    file is missing, the manifest is corrupted, the format/version does not
    match, the stored kind differs from ``expected_kind``, or the array file
    does not contain exactly the arrays the manifest promises.
    """
    read_started = time.perf_counter()
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise ConfigurationError(f"artifact manifest not found: {manifest_path}")

    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"corrupted artifact manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            f"corrupted artifact manifest {manifest_path}: expected a JSON object"
        )
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ConfigurationError(
            f"{manifest_path} is not a {ARTIFACT_FORMAT} manifest "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != ARTIFACT_VERSION:
        raise ConfigurationError(
            f"artifact version mismatch in {manifest_path}: found "
            f"{manifest.get('version')!r}, this library reads version "
            f"{ARTIFACT_VERSION} only; re-create the snapshot"
        )
    if expected_kind is not None and manifest.get("kind") != expected_kind:
        raise ConfigurationError(
            f"artifact at {path} holds a {manifest.get('kind')!r}, "
            f"expected a {expected_kind!r}"
        )

    arrays_name = manifest.get("arrays_file")
    if not isinstance(arrays_name, str) or Path(arrays_name).name != arrays_name:
        raise ConfigurationError(
            f"corrupted artifact manifest {manifest_path}: invalid "
            f"arrays_file {arrays_name!r}"
        )
    arrays_path = path / arrays_name
    if not arrays_path.exists():
        raise ConfigurationError(f"artifact array file not found: {arrays_path}")
    try:
        # Own the handle: on a torn file np.load raises after opening it,
        # and nothing else would close it.
        with open(arrays_path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as stored:
            arrays = {key: stored[key] for key in stored.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ConfigurationError(
            f"corrupted artifact array file {arrays_path}: {exc}; the "
            f"artifact is torn — re-create the snapshot"
        ) from exc
    promised = manifest.get("arrays")
    if not isinstance(promised, list) or sorted(arrays) != sorted(promised):
        raise ConfigurationError(
            f"artifact arrays in {arrays_path} do not match the manifest: "
            f"stored {sorted(arrays)}, promised {promised}"
        )
    observe_artifact_io(
        "read",
        time.perf_counter() - read_started,
        arrays_path.stat().st_size + manifest_path.stat().st_size,
    )
    return manifest, arrays


# --------------------------------------------------------------------------- #
# Imputer-level layer
# --------------------------------------------------------------------------- #
def save_imputer(imputer, path: Union[str, Path]) -> Path:
    """Serialize a fitted imputer (behind :meth:`BaseImputer.save`)."""
    from ..baselines.base import BaseImputer

    if not isinstance(imputer, BaseImputer):
        raise ConfigurationError("save_imputer expects a BaseImputer instance")
    if not imputer.is_fitted():
        raise ConfigurationError(
            f"{type(imputer).__name__} must be fitted before saving"
        )

    relation = imputer.fitted_relation
    manifest: Dict[str, object] = {
        "class": type(imputer).__name__,
        "method": imputer.name,
        "params": imputer.get_params(),
        "schema": list(relation.schema.attributes),
        "relation_name": relation.name,
    }
    arrays: Dict[str, np.ndarray] = {"relation_values": relation.raw.copy()}
    labels = relation.labels
    if labels is not None:
        arrays["relation_labels"] = labels

    payload_meta, payload_arrays = imputer._artifact_payload()
    manifest["payload"] = payload_meta
    for key, value in payload_arrays.items():
        arrays[_PAYLOAD_PREFIX + key] = np.asarray(value)
    return write_artifact(path, "imputer", manifest, arrays)


def _resolve_imputer_class(class_name: str):
    """Map a stored class name back to the imputer class."""
    from .. import baselines
    from ..baselines.base import BaseImputer
    from ..core import IIMImputer

    candidates = {IIMImputer.__name__: IIMImputer}
    for attribute in dir(baselines):
        obj = getattr(baselines, attribute)
        if isinstance(obj, type) and issubclass(obj, BaseImputer):
            candidates[obj.__name__] = obj
    if class_name not in candidates:
        raise ConfigurationError(
            f"artifact stores unknown imputer class {class_name!r}; "
            f"known classes: {sorted(candidates)}"
        )
    return candidates[class_name]


def load_imputer(path: Union[str, Path], cls=None):
    """Restore an imputer saved by :func:`save_imputer`.

    Parameters
    ----------
    path:
        The artifact directory.
    cls:
        Optional expected class; a stored artifact of a different class
        raises :class:`ConfigurationError` instead of silently returning the
        wrong method.
    """
    from ..data.relation import Relation, Schema

    manifest, arrays = read_artifact(path, expected_kind="imputer")
    class_name = manifest.get("class")
    resolved = _resolve_imputer_class(str(class_name))
    if cls is not None and resolved is not cls:
        raise ConfigurationError(
            f"artifact at {path} stores a {class_name}, expected {cls.__name__}"
        )

    params = manifest.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigurationError(f"corrupted artifact params in {path}: {params!r}")
    imputer = resolved(**params)

    values = arrays.get("relation_values")
    if values is None:
        raise ConfigurationError(f"artifact at {path} is missing relation_values")
    relation = Relation(
        values,
        Schema([str(a) for a in manifest.get("schema", [])]),
        labels=arrays.get("relation_labels"),
        name=str(manifest.get("relation_name", "")),
    )
    imputer._fitted_relation = relation
    imputer._complete_values = relation.raw.copy()

    payload_meta = manifest.get("payload") or {}
    payload_arrays = {
        key[len(_PAYLOAD_PREFIX):]: value
        for key, value in arrays.items()
        if key.startswith(_PAYLOAD_PREFIX)
    }
    imputer._restore_payload(payload_meta, payload_arrays)
    return imputer
