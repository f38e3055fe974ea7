"""File formats: JSON-Lines records, density-matrix and manifest JSON, CSVs.

Each format has a CLI command that writes it: quadrature datasets
(`simulate`, `twomode`), array frames (`array`), density matrices and the
Wigner and photon-number CSVs (`reconstruct`), the signal CSVs (`sample`)
and manifests (`simulate`).  A dual-LO record (`twomode`) is a quadrature
dataset with a ζ column: its header adds mode "dual", α and the ζ
schedule, and each line its ζ and the combined quadrature Q.  Every
artifact's bytes are decided here: canonical JSON (sorted keys, compact
separators) and CSVs with each float as its repr, so a rerun with the same
seed produces byte-identical artifacts.  Readers refuse unknown format tags
and bad header or record values with a DataFormatError; a header's
detector, schedule, pixel grid and seed are read under the rules configs
follow (`from_dict`, `fit`).

Records are written in bulk: a block's values are formatted by one `repr`
of their list (`float.__repr__`, the number format of `json.dumps`), and
`_write_lines` joins them with the template's literal pieces in one list,
so the lines are the bytes `dumps_canonical` writes for each record.  A
frame set has few distinct counts, a phase column at most
max(d, PHASE_SNAP) values, and a Wigner CSV's axes repeat, so each such
value is formatted once.  `read_quadrature_dataset` reads the body in
bounded chunks.  A chunk of canonical lines (sorted keys, no spaces, JSON
numbers with a fraction or exponent, a final newline) is checked by one
regular expression and parsed by one `str.translate` and one
`np.fromstring`; any other chunk (hand-written files, ints, NaN, a missing
last newline, bad records) goes line by line through `json.loads`, which
keeps the `path:line` error messages.  A path that cannot be opened, or
bytes that are not text, are a DataFormatError naming the line.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from ._config import fit
from .detection import (FORMAT_VERSION, DatasetMeta, DetectorModel, PhaseSchedule,
                        QuadratureDataset, distinct)
from .errors import DataFormatError
from .states import DensityMatrix, WignerGrid

ARRAY_FORMAT = "ohtlab-array-v1"
MANIFEST_FORMAT = "ohtlab-manifest-v1"

#: values formatted per write, and characters read per parsed chunk; a
#: chunk's text and number objects stay well below a megabyte, so they do
#: not raise the peak memory of the commands that write or read datasets
WRITE_CHUNK = 1 << 12
READ_CHUNK = 1 << 17

#: record lines as dumps_canonical writes them, and the keys of their fields
_SINGLE_RECORD = ('{"q":%s,"theta":%s}\n', ("q", "theta"))
_DUAL_RECORD = ('{"Q":%s,"theta":%s,"zeta":%s}\n', ("Q", "theta", "zeta"))
_FRAME_RECORD = '{"d":[%s],"theta":%s}\n'

#: a JSON number with a fraction or an exponent, as every finite float repr
#: has; [0-9], not \d, which also matches digits json.loads refuses.  Each
#: digit run ends at a literal that is not a digit, so a failed match gives
#: back only a few characters per number and the check stays linear
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
#: json.dumps spellings of the non-finite float reprs
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: detector keys that headers written before they were recorded lack
_LATER_DETECTOR_KEYS = ("gain", "balance_imbalance")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, doc) -> None:
    """One canonical JSON document and a newline."""
    Path(path).write_text(dumps_canonical(doc) + "\n")


def _field_texts(column) -> list[str]:
    """Floats as f"{x!r}" writes them, from one repr of their list; others by str."""
    values = np.asarray(column)
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    texts = repr(values.tolist())[1:-1]
    return texts.split(", ") if texts else []


def _json_floats(values) -> list[str]:
    """Each value as json.dumps writes a float: its repr, or NaN/Infinity."""
    values = np.asarray(values, float)
    texts = _field_texts(values)
    if not np.isfinite(values).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


def _distinct_json_floats(column) -> tuple[np.ndarray, np.ndarray]:
    """_json_floats of a column with few distinct values, each formatted once:
    the texts of its distinct bit patterns (so −0.0 and NaN keep their own
    text) and, per value, the index of its text."""
    keys, index = np.unique(np.asarray(column, float).view(np.uint64), return_inverse=True)
    return np.array(_json_floats(keys.view(float)), dtype=object), index


def _write_lines(f, template: str, *fields: list[str]) -> None:
    """Write one template line per row of the field texts: one join of the
    template's literal pieces with the texts slice-assigned between them."""
    head, *middles, tail = template.split("%s")
    out = [tail + head, *chain.from_iterable((None, m) for m in middles), None] * len(fields[0])
    for k, texts in enumerate(fields):
        out[2 * k + 1::2 * len(fields)] = texts
    if out:
        out[0] = head
        out.append(tail)
        f.write("".join(out))


def write_csv(path, header: str, *columns) -> None:
    """The header line, then one row per entry of the equally long columns."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, len(columns[0]), WRITE_CHUNK):
            _write_lines(f, ",".join(["%s"] * len(columns)) + "\n",
                         *(_field_texts(c[start:start + WRITE_CHUNK]) for c in columns))


def _dataset_header(ds) -> dict:
    sched = ds.meta.schedule
    header = {
        "format": FORMAT_VERSION,
        **ds.meta.detector.to_dict(),
        "schedule": sched.to_dict(),
        "n_phases": sched.d,
        "seed": ds.meta.seed,
    }
    if ds.meta.source is not None:
        header["source"] = ds.meta.source
    if ds.zetas is not None:
        header["mode"] = "dual"
        header["alpha"] = ds.meta.extra["alpha"]
        header["zeta_schedule"] = ds.meta.extra.get("zeta_schedule")
    return header


def write_quadrature_dataset(path, ds: QuadratureDataset) -> None:
    """Write a single-mode or dual-LO quadrature record as JSON Lines."""
    path = Path(path)
    if ds.zetas is None:
        template, phases = _SINGLE_RECORD[0], (ds.thetas,)
    else:
        template, phases = _DUAL_RECORD[0], (ds.thetas, ds.zetas)
    phases = [_distinct_json_floats(c) for c in phases]
    rows = max(1, WRITE_CHUNK // (1 + len(phases)))
    with open(path, "w") as f:
        f.write(dumps_canonical(_dataset_header(ds)) + "\n")
        for start in range(0, len(ds), rows):
            _write_lines(f, template, _json_floats(ds.qs[start:start + rows]),
                         *(texts[index[start:start + rows]].tolist() for texts, index in phases))


def _parse_lines(text: str, path, first_line: int, keys) -> list[np.ndarray]:
    """Fields of the records in text, one json.loads per line, each a JSON number."""
    fields = [[] for _ in keys]
    for i, line in enumerate(text.split("\n"), start=first_line):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            for values, key in zip(fields, keys):
                if type(rec[key]) not in (int, float):
                    raise TypeError(f"{key} is {rec[key]!r}, not a number")
                values.append(rec[key])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{path}:{i}: bad record: {exc}") from exc
    return [np.asarray(values, float) for values in fields]


def _read_records(f, path, record) -> list[np.ndarray]:
    """Fields of the body records, read in chunks of whole lines.  A canonical
    chunk is parsed at once: its template characters become spaces, but ":"
    and one "e" per gap ("theta", "zeta", q or Q), so each gap reads " e :"."""
    template, keys = record
    canonical = re.compile("(?:%s)*" % re.escape(template).replace("%s", _FLOAT))
    gaps = str.maketrans({c: c if c in ":e" else "e" if c in "qQ" else " "
                          for c in template.replace("%s", "")})
    parts = [[np.empty(0)] for _ in keys]
    first_line = 2
    while chunk := f.read(READ_CHUNK):
        if not chunk.endswith("\n"):
            chunk += f.readline()
        if canonical.fullmatch(chunk):
            # correctly rounded like float() and json.loads; the match above
            # leaves nothing else in the text
            values = np.fromstring(chunk.translate(gaps)[template.index("%s"):], sep=" e :")
            values = values.reshape(-1, len(keys)).T
            first_line += values.shape[1]
        else:
            values = _parse_lines(chunk, path, first_line, keys)
            first_line += chunk.count("\n")
        for part, column in zip(parts, values):
            part.append(column)
    return [np.concatenate(part) for part in parts]


def json_object(path, text: str, what: str) -> dict:
    """The JSON object that text, read from path, holds; DataFormatError
    naming what the text is for anything else."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: {what} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: {what} is not a JSON object")
    return doc


def decode_error(path) -> str:
    """Where the first byte of the file at path that does not decode is."""
    try:
        Path(path).read_text()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {line}: byte {exc.object[exc.start]:#04x} is not {exc.encoding} text"


def read_quadrature_dataset(path) -> QuadratureDataset:
    """Read an ohtlab-quad-v1 file; a dual-LO header gives the record a ζ
    column and its α and ζ schedule in meta.extra."""
    path = Path(path)
    try:
        with open(path) as f:
            header = json_object(path, f.readline(), "header line")
            if header.get("format") != FORMAT_VERSION:
                raise DataFormatError(f"{path}: format {header.get('format')!r} "
                                      f"is not {FORMAT_VERSION!r}")
            dual = header.get("mode") == "dual"
            qs, thetas, *zetas = _read_records(f, path, _DUAL_RECORD if dual else _SINGLE_RECORD)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(decode_error(path)) from exc
    try:
        det = DetectorModel.from_dict({k: header[k] for k in DetectorModel().to_dict()
                                       if k in header or k not in _LATER_DETECTOR_KEYS})
        meta = DatasetMeta(detector=det, schedule=PhaseSchedule.from_dict(header["schedule"]),
                           seed=fit(int, header["seed"], "seed"), source=header.get("source"))
        if dual:
            meta.extra = {"alpha": header["alpha"], "zeta_schedule": header.get("zeta_schedule")}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad header: {type(exc).__name__}: {exc}") from exc
    try:
        return QuadratureDataset(thetas=thetas, qs=qs, meta=meta,
                                 zetas=zetas[0] if dual else None)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_density_matrix(path, rho: DensityMatrix, errors: np.ndarray | None = None) -> None:
    doc = {"dim": rho.dim, "re": rho.elements.real.tolist(), "im": rho.elements.imag.tolist()}
    if errors is not None:
        doc["errors"] = np.asarray(errors, float).tolist()
    write_json(path, doc)


def read_density_matrix(path):
    """ρ and its errors (None if absent) as write_density_matrix writes them;
    DataFormatError unless each value fits the config rules and each matrix
    is dim × dim."""
    doc = json_object(path, Path(path).read_text(), "document")
    keys = ("re", "im", "errors") if "errors" in doc else ("re", "im")
    try:
        dim = fit(int, doc["dim"], "dim")
        m = {key: np.array(fit(list[list[float]], doc[key], key), float) for key in keys}
        for key in keys:
            if m[key].shape != (dim, dim):
                raise ValueError(f"{key} is not {dim} × {dim}")
        rho = DensityMatrix(dim=dim, elements=m["re"] + 1j * m["im"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad density matrix: {type(exc).__name__}: {exc}") from exc
    return rho, m.get("errors")


def write_wigner_csv(path, w: WignerGrid) -> None:
    """The header q,p,w, then one (q, p, W) row per grid point, q outer, as
    write_csv writes them: each axis value is formatted once, and each q's
    rows are one write with its text in the template."""
    p_texts = _field_texts(w.p_axis)
    with open(path, "w") as f:
        f.write("q,p,w\n")
        for q_text, row in zip(_field_texts(w.q_axis), w.values):
            _write_lines(f, q_text + ",%s,%s\n", p_texts, _field_texts(row))


def write_pn_csv(path, p: np.ndarray, stderr: np.ndarray) -> None:
    write_csv(path, "n,p,stderr", range(len(p)), p, stderr)


def write_signal_csv(path, t_axis, values) -> None:
    values = np.asarray(values, complex)
    write_csv(path, "t,re,im", t_axis, values.real, values.imag)


def _count_table(counts: np.ndarray):
    """The text of each distinct integer count, formatted once, and a function
    from a block of counts to the indices of their texts.  The index is the
    offset from the smallest count when the counts span no more values than
    there are counts, else the position among the distinct counts; the span
    is taken in Python ints, so int64 extremes do not overflow, and the table
    never holds more texts than there are counts."""
    lo, hi = (int(counts.min()), int(counts.max())) if counts.size else (0, -1)
    if hi - lo < counts.size:
        return np.array(list(map(str, range(lo, hi + 1))), object), lambda block: block - lo
    keys = distinct(counts)
    return (np.array(list(map(str, keys.tolist())), object),
            lambda block: np.searchsorted(keys, block))


def write_array_frames(path, frames) -> None:
    header = {
        "format": ARRAY_FORMAT,
        "n_pixels": frames.grid.n_pixels,
        "pixel_area": frames.grid.pixel_area,
        "eta_q": frames.detector.eta_q,
        "lo_mean_photons": frames.detector.lo_mean_photons,
        "sigma_e": frames.detector.sigma_e,
        "schedule": frames.schedule.to_dict(),
        "seed": frames.seed,
        "vacuum_offsets": [float(x) for x in frames.vacuum_offsets],
        "planted": frames.planted,
    }
    texts, index = _count_table(frames.frames)
    rows = max(1, WRITE_CHUNK // (frames.grid.n_pixels + 1))
    with open(path, "w") as f:
        f.write(dumps_canonical(header) + "\n")
        for start in range(0, len(frames.thetas), rows):
            cells = texts[index(frames.frames[start:start + rows])].tolist()
            _write_lines(f, _FRAME_RECORD, list(map(",".join, cells)),
                         _json_floats(frames.thetas[start:start + rows]))


def read_array_frames(path):
    from .arrays import ArrayFrameSet, PixelGrid

    with open(path) as f:
        header = json_object(path, f.readline(), "header line")
        if header.get("format") != ARRAY_FORMAT:
            raise DataFormatError(f"{path}: not an {ARRAY_FORMAT} file")
        records = [(i, json_object(path, line, f"line {i}"))
                   for i, line in enumerate(f, 2) if line.strip()]
    try:
        grid = PixelGrid.from_dict({k: header[k] for k in ("n_pixels", "pixel_area")})
        det = DetectorModel.from_dict({k: header[k] for k in ("eta_q", "lo_mean_photons",
                                                              "sigma_e")})
        schedule = PhaseSchedule.from_dict(header["schedule"])
        seed = fit(int, header["seed"], "seed")
        offsets = fit(list[float], header["vacuum_offsets"], "vacuum_offsets")
        if len(offsets) != grid.n_pixels:
            raise ValueError(f"{len(offsets)} vacuum_offsets for {grid.n_pixels} pixels")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad header: {type(exc).__name__}: {exc}") from exc
    for i, rec in records:
        row, theta = rec.get("d"), rec.get("theta")
        if not (type(theta) in (int, float) and isinstance(row, list)
                and len(row) == grid.n_pixels and all(type(v) is int for v in row)):
            raise DataFormatError(f"{path}:{i}: bad record: expected a number theta and "
                                  f"d of {grid.n_pixels} integer counts")
    try:
        frames = np.array([rec["d"] for _, rec in records], np.int64)
    except OverflowError as exc:
        raise DataFormatError(f"{path}: a count does not fit in 64 bits") from exc
    return ArrayFrameSet(frames=frames,
                         thetas=np.array([rec["theta"] for _, rec in records], float),
                         vacuum_offsets=np.array(offsets), grid=grid, detector=det,
                         schedule=schedule, seed=seed, planted=header.get("planted", []))


def write_manifest(path, seed: int, config: dict, files: dict) -> None:
    import ohtlab

    doc = {
        "format": MANIFEST_FORMAT,
        "seed": seed,
        "config": config,
        "versions": {"ohtlab": ohtlab.__version__, "numpy": np.__version__},
        "files": {name: sha256_file(p) for name, p in files.items()},
    }
    write_json(path, doc)
