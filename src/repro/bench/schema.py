"""Shared schema validation for the committed ``BENCH_*.json`` artifacts.

Every benchmark artifact this repo commits is a regression baseline: CI
gates diff fresh runs against it, and PR reviews diff the artifact
itself.  That only works if two invariants hold for every artifact, not
just the one bench that happened to grow a validator first:

* **It round-trips.**  ``json.loads(json.dumps(doc)) == doc`` — no
  tuples-became-lists surprises, no NaN/Infinity, no integer keys that
  stringify on the way out and stop matching on the way back in.
* **Deterministic and environment fields are separable.**  Virtual-time
  measurements (solve times, gaps, switch counts, injection counts) are
  bit-identical across machines and runs; wall-clock seconds and the
  interpreter version are not.  A reviewer diffing an artifact must be
  able to strip the environment side and expect the rest to be stable.
  The A/B artifacts (:mod:`repro.bench.ab`) separate the two
  *structurally* (top-level ``deterministic`` / ``environment`` blocks);
  the serve doc mixes them per key, so :func:`strip_environment`
  classifies its keys by name.

:func:`validate_artifact` applies the common invariants plus per-bench
structural checks; the tier-1 suite runs it over every committed
artifact, and ``python -m repro.bench validate`` is the same check as a
command.
"""

from __future__ import annotations

import json
import math

#: keys that are wall-clock / interpreter artifacts in *any* document
_ENV_EXACT = frozenset({"python", "invocation"})

#: ``_s``-suffixed keys that are deterministic inputs, not wall seconds
_DET_EXCEPTIONS = frozenset({"zipf_s"})

_KNOWN_BENCHES = ("ab", "serve")


def is_environment_key(key: str) -> bool:
    """Wall-clock or interpreter flavored: never allowed on the
    deterministic side of any artifact."""
    if key in _ENV_EXACT or "wall" in key:
        return True
    if key.endswith("_s") and key not in _DET_EXCEPTIONS:
        return True
    return key.endswith("_per_s")


def _strip_keys(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_keys(v)
            for k, v in obj.items()
            if not is_environment_key(k)
        }
    if isinstance(obj, list):
        return [_strip_keys(v) for v in obj]
    return obj


def strip_environment(doc: dict) -> dict:
    """The deterministic projection of an artifact: what must be
    bit-identical between two runs of the same code."""
    if doc.get("bench") == "ab":
        return {k: v for k, v in doc.items() if k != "environment"}
    return _strip_keys(doc)


def _walk_finite(errors, where, obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _walk_finite(errors, f"{where}.{k}", v)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _walk_finite(errors, f"{where}[{i}]", v)
    elif isinstance(obj, float) and not math.isfinite(obj):
        errors.append(f"{where}: non-finite number {obj!r}")


def _walk_det_keys(errors, where, obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if is_environment_key(k):
                errors.append(
                    f"{where}.{k}: wall/interpreter-flavored key inside "
                    "the deterministic block"
                )
            _walk_det_keys(errors, f"{where}.{k}", v)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _walk_det_keys(errors, f"{where}[{i}]", v)


def _validate_ab(errors: list, doc: dict) -> None:
    from repro.bench.ab import AB_SCHEMA_VERSION

    if doc.get("schema_version") != AB_SCHEMA_VERSION:
        errors.append(
            f"schema_version != {AB_SCHEMA_VERSION} "
            f"({doc.get('schema_version')!r})"
        )
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        errors.append(f"missing spec name ({doc.get('name')!r})")
    det = doc.get("deterministic")
    env = doc.get("environment")
    if not isinstance(det, dict):
        errors.append("no deterministic block")
        return
    if not isinstance(env, dict):
        errors.append("no environment block")
        return
    for key in ("python", "invocation", "cells"):
        if key not in env:
            errors.append(f"environment.{key} missing")
    for key in (
        "description", "workload", "workload_params", "version",
        "base_overrides", "toggle", "arms", "axis", "seeds", "points",
        "headline",
    ):
        if key not in det:
            errors.append(f"deterministic.{key} missing")
    if errors:
        return
    _walk_det_keys(errors, "deterministic", det)
    arms = det["arms"]
    if (
        not isinstance(arms, dict)
        or set(arms) != {"a", "b"}
        or arms["a"] == arms["b"]
    ):
        errors.append(f"bad arms block {arms!r}")
        return
    toggle = det["toggle"]
    if not isinstance(toggle, dict) or not (1 <= len(toggle) <= 2):
        errors.append(
            f"toggle must name one flag (or a pair), got {toggle!r}"
        )
    seeds = det["seeds"]
    if not isinstance(seeds, list) or not seeds:
        errors.append(f"bad seeds list {seeds!r}")
        return
    points = det["points"]
    if not isinstance(points, list) or not points:
        errors.append("points list empty")
        return
    metric_names = None
    for i, row in enumerate(points):
        where = f"points[{i}]"
        if not isinstance(row, dict) or not {
            "point", "cells", "metrics"
        } <= set(row):
            errors.append(f"{where}: missing point/cells/metrics")
            continue
        cells = row["cells"]
        for label in (arms["a"], arms["b"]):
            arm_cells = cells.get(label)
            if not isinstance(arm_cells, dict):
                errors.append(f"{where}.cells.{label}: missing arm")
                continue
            for seed in seeds:
                cell = arm_cells.get(str(seed))
                if not isinstance(cell, dict) or "metrics" not in cell:
                    errors.append(
                        f"{where}.cells.{label}[{seed}]: missing cell"
                    )
        names = sorted(row["metrics"])
        if metric_names is None:
            metric_names = names
        elif names != metric_names:
            errors.append(
                f"{where}: metric set {names} differs from first point's "
                f"{metric_names}"
            )
        for name, m in row["metrics"].items():
            mwhere = f"{where}.metrics.{name}"
            if m.get("better") not in ("lower", "higher"):
                errors.append(f"{mwhere}: bad better {m.get('better')!r}")
            for side in ("per_seed_a", "per_seed_b"):
                vals = m.get(side)
                if not isinstance(vals, list) or len(vals) != len(seeds):
                    errors.append(
                        f"{mwhere}.{side}: expected {len(seeds)} samples, "
                        f"got {vals!r}"
                    )
            for side in ("a", "b"):
                ci = m.get(side)
                if not isinstance(ci, dict) or not {
                    "mean", "lo", "hi", "n", "stdev"
                } <= set(ci):
                    errors.append(f"{mwhere}.{side}: malformed interval")
                elif not ci["lo"] <= ci["mean"] <= ci["hi"]:
                    errors.append(
                        f"{mwhere}.{side}: interval not ordered "
                        f"(lo {ci['lo']}, mean {ci['mean']}, hi {ci['hi']})"
                    )
    headline = det["headline"]
    if not isinstance(headline, dict):
        errors.append(f"bad headline block {headline!r}")
        return
    for name, h in headline.items():
        if metric_names is not None and name not in metric_names:
            errors.append(f"headline.{name}: not a recorded metric")
        lo, hi = h.get("speedup_mean_min"), h.get("speedup_mean_max")
        if lo is not None and hi is not None and lo > hi:
            errors.append(
                f"headline.{name}: speedup_mean_min {lo} > max {hi}"
            )


def validate_artifact(doc, path: str = "?") -> list:
    """Validate one artifact document; returns problems (empty = valid).

    Common invariants apply to every bench kind; the known kinds get
    structural checks on the fields their CI gates read.  An unknown
    ``bench`` value fails — committed artifacts must be one of ours.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"{path}: expected object, got {type(doc).__name__}"]
    bench = doc.get("bench")
    if bench not in _KNOWN_BENCHES:
        errors.append(
            f"unknown bench kind {bench!r} (known: {_KNOWN_BENCHES})"
        )
    if not isinstance(doc.get("quick"), bool):
        errors.append(
            f"quick must be a bool, got {doc.get('quick')!r} — gates need "
            "it to reject quick-mode baselines"
        )
    try:
        if json.loads(json.dumps(doc, allow_nan=False)) != doc:
            errors.append("document does not round-trip through JSON")
    except ValueError as exc:
        errors.append(f"document not JSON-serializable: {exc}")
    _walk_finite(errors, "$", doc)
    det = strip_environment(doc)
    if not det or det == {"bench": bench}:
        errors.append("deterministic projection is empty")
    if bench == "ab":
        _validate_ab(errors, doc)
    elif bench == "serve":
        from repro.bench.servebench import validate_serve_doc

        errors.extend(validate_serve_doc(doc))
    return [f"{path}: {e}" for e in errors]


def validate_artifact_file(path: str) -> list:
    """Load and validate one artifact file.  A file at a canonical name
    (no ``.quick.`` marker) is a CI baseline and must be a full run —
    quick sweeps belong in ``BENCH_<name>.quick.json``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    errors = validate_artifact(doc, path=path)
    if ".quick." not in path.rsplit("/", 1)[-1] and doc.get("quick") is True:
        errors.append(
            f"{path}: quick-mode artifact at a canonical baseline name — "
            "quick runs must not overwrite CI baselines (write to "
            "BENCH_<name>.quick.json, or pass --force to mean it)"
        )
    return errors
