"""Columnar result artifacts: npz baseline, Parquet behind ``pyarrow``.

An artifact is the columnar form of one archived run's result rows
(:class:`~repro.simulation.ScenarioResult`): one array per column, one
element per row. Metric columns are raw float64/int64 — both carriers
store them bit-for-bit, which is what lets a dedup hit return rows
bitwise identical to the originals. Structured columns (``params``,
``extras``) are canonical-JSON strings per row; Python's shortest
round-trip float ``repr`` makes that lossless for float64 too.

The npz carrier is always available (numpy is a hard dependency).
Parquet engages only when ``pyarrow`` imports — install the
``repro-weddell-date13[parquet]`` extra — and is selected per catalog
(``format="parquet"``) or automatically (``format="auto"`` prefers
Parquet when available). Readers dispatch on the file suffix, so one
catalog can hold a mix of both.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from ..analysis.export import to_jsonable
from ..simulation.kernel.protocol import CapabilityReport
from ..simulation.metrics import RunMetrics
from ..simulation.sweep import ScenarioResult

__all__ = [
    "ARTIFACT_SCHEMA",
    "have_pyarrow",
    "resolve_format",
    "rows_to_columns",
    "columns_to_rows",
    "write_artifact",
    "read_artifact",
]

#: Artifact schema tag; bump on any incompatible column change.
ARTIFACT_SCHEMA = "repro-catalog-rows-v1"

#: RunMetrics fields, in dataclass order (the column order).
_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))

#: RunMetrics fields carried as int64 (the rest are float64).
_INT_METRICS = frozenset(
    f.name for f in dataclasses.fields(RunMetrics)
    if f.type in (int, "int"))


def have_pyarrow() -> bool:
    """True when the optional ``pyarrow`` extra is importable."""
    try:
        import pyarrow  # noqa: F401
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_format(format: str) -> str:
    """Resolve a requested artifact format to a concrete carrier.

    ``"auto"`` prefers Parquet when ``pyarrow`` imports and falls back
    to npz; ``"parquet"`` *requires* pyarrow (raising ``RuntimeError``
    naming the extra); ``"npz"`` always works.
    """
    if format == "auto":
        return "parquet" if have_pyarrow() else "npz"
    if format == "parquet":
        if not have_pyarrow():
            raise RuntimeError(
                "artifact format 'parquet' needs pyarrow — install the "
                "[parquet] extra, or use format='npz'/'auto'")
        return "parquet"
    if format == "npz":
        return "npz"
    raise ValueError(f"format must be 'auto', 'npz' or 'parquet', "
                     f"got {format!r}")


#: Row extras that hold a :class:`CapabilityReport`; JSON stores them as
#: plain dicts.
_REPORT_EXTRAS = ("batch_fallback_reason", "codegen_fallback_reason")


def revive_extras(extras: dict) -> dict:
    """Archived row extras -> the extras the run produced: capability
    reports come back as :class:`CapabilityReport`, not dicts."""
    for key in _REPORT_EXTRAS:
        value = extras.get(key)
        if isinstance(value, dict):
            extras[key] = CapabilityReport(**value)
    return extras


def _json_cell(value) -> str:
    """One params/extras dict as a canonical JSON cell."""
    return json.dumps(to_jsonable(value), sort_keys=True)


def rows_to_columns(results) -> dict:
    """Result rows -> columnar arrays (raises TypeError on un-JSON-able
    params/extras; callers treat that as "this row is not archivable")."""
    results = list(results)
    columns = {
        "name": np.array([r.name for r in results], dtype=np.str_),
        "execution_path": np.array([r.execution_path for r in results],
                                   dtype=np.str_),
        "n_steps": np.array([r.n_steps for r in results], dtype=np.int64),
        "params_json": np.array([_json_cell(r.params) for r in results],
                                dtype=np.str_),
        "extras_json": np.array([_json_cell(r.extras) for r in results],
                                dtype=np.str_),
    }
    for field_name in _METRIC_FIELDS:
        dtype = np.int64 if field_name in _INT_METRICS else np.float64
        columns[f"metric_{field_name}"] = np.array(
            [getattr(r.metrics, field_name) for r in results], dtype=dtype)
    return columns


def columns_to_rows(columns: dict) -> list:
    """Columnar arrays -> :class:`ScenarioResult` rows (bitwise inverse
    of :func:`rows_to_columns` for every numeric column)."""
    n = int(len(columns["name"]))
    rows = []
    for i in range(n):
        metric_kwargs = {}
        for field_name in _METRIC_FIELDS:
            cell = columns[f"metric_{field_name}"][i]
            metric_kwargs[field_name] = \
                int(cell) if field_name in _INT_METRICS else float(cell)
        rows.append(ScenarioResult(
            name=str(columns["name"][i]),
            params=json.loads(str(columns["params_json"][i])),
            metrics=RunMetrics(**metric_kwargs),
            n_steps=int(columns["n_steps"][i]),
            extras=revive_extras(json.loads(str(columns["extras_json"][i]))),
            execution_path=str(columns["execution_path"][i]),
        ))
    return rows


def write_artifact(path, results, format: str) -> None:
    """Archive result rows at ``path`` (suffix decides nothing: the
    resolved ``format`` does; pass the path returned by the catalog)."""
    columns = rows_to_columns(results)
    if format == "npz":
        np.savez(path, schema=np.array([ARTIFACT_SCHEMA]), **columns)
        return
    if format == "parquet":
        import pyarrow as pa
        import pyarrow.parquet as pq
        arrays, names = [], []
        for name, column in columns.items():
            if column.dtype.kind in ("U", "S"):
                arrays.append(pa.array([str(v) for v in column],
                                       type=pa.string()))
            elif column.dtype == np.int64:
                arrays.append(pa.array(column, type=pa.int64()))
            else:
                arrays.append(pa.array(column, type=pa.float64()))
            names.append(name)
        table = pa.Table.from_arrays(
            arrays, names=names,
            metadata={b"repro_schema": ARTIFACT_SCHEMA.encode()})
        pq.write_table(table, path)
        return
    raise ValueError(f"unknown artifact format {format!r}")


def read_artifact(path) -> list:
    """Load archived result rows (dispatches on the file suffix)."""
    path_str = str(path)
    if path_str.endswith(".npz"):
        with np.load(path_str, allow_pickle=False) as data:
            schema = str(data["schema"][0])
            if schema != ARTIFACT_SCHEMA:
                raise ValueError(
                    f"{path_str}: unsupported artifact schema {schema!r} "
                    f"(expected {ARTIFACT_SCHEMA!r})")
            columns = {key: data[key] for key in data.files
                       if key != "schema"}
        return columns_to_rows(columns)
    if path_str.endswith(".parquet"):
        if not have_pyarrow():
            raise RuntimeError(
                f"{path_str} is a Parquet artifact but pyarrow is not "
                f"installed — install the [parquet] extra to read it")
        import pyarrow.parquet as pq
        table = pq.read_table(path_str)
        metadata = table.schema.metadata or {}
        schema = metadata.get(b"repro_schema", b"").decode()
        if schema != ARTIFACT_SCHEMA:
            raise ValueError(
                f"{path_str}: unsupported artifact schema {schema!r} "
                f"(expected {ARTIFACT_SCHEMA!r})")
        columns = {}
        for name in table.column_names:
            column = table.column(name)
            if column.type == "string":
                columns[name] = np.array(column.to_pylist(), dtype=np.str_)
            else:
                columns[name] = column.to_numpy(zero_copy_only=False)
        return columns_to_rows(columns)
    raise ValueError(f"unrecognized artifact file {path_str!r} "
                     f"(expected .npz or .parquet)")
