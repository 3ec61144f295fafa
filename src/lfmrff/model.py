"""Domain types for latent force and convolved multi-output GP models.

Model structure (outputs, latent forces, sensitivities, noise), observed
datasets, and the flat hyperparameter vector used by the optimizer all live
here.  Every type is immutable after construction and safe to share across
threads.

Each ODE operator kind (``Ode1Params``, ``Ode2Params``, ``OdeOperator``) is
described once, on its class: its name in configs and fit files, its config
keys and defaults, its fit-file fields, its packed slots and the chain rule
from d/d(a_0..a_P) to them.  ``OPERATOR_KINDS`` maps each name to its
class, and the command line, ``pack``/``unpack`` and the likelihood's
gradient read these facts instead of switching on the type.

Each model kind (``LfmSpec``, ``MogpSpec``, mapped from fit-file kinds by
``SPEC_KINDS``) is described on its class the same way, packing and input
checks included.

Output and force identifiers are 1-based everywhere, matching the on-disk
CSV convention (``output_id,t,y``).  Internal array indices are 0-based.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import signal
import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DataError",
    "NumericalError",
    "OdeOperator",
    "Ode1Params",
    "Ode2Params",
    "LfmSpec",
    "MogpSpec",
    "Dataset",
    "HyperParamVector",
    "pack",
    "unpack",
    "validate_dataset",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_csv_columns",
    "NOISE_FLOOR",
]

# Smallest noise variance the optimizer may reach; keeps Sigma invertible.
NOISE_FLOOR = 1e-8


class DataError(ValueError):
    """User-supplied data is invalid (bad CSV, out-of-range ids, shapes)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (roots, factorization, quadrature)."""


# ---------------------------------------------------------------------------
# operator descriptions


class _OperatorKind:
    """What the other modules read off an operator kind, so none switches on it.

    ``kind`` names the kind in configs (``model=``) and fit files
    (``"type"``).  The dataclass fields name its config keys
    (``{field}{d}`` for output d) and its fit-file fields, and
    ``config_defaults`` holds ``build_spec``'s default for each; a tuple
    default takes a comma list.  Each field is one of the operator's last
    coefficients a_i, and packs as its log (this base class); a general
    operator packs its raw coefficients instead.
    """

    @classmethod
    def config_keys(cls) -> dict:
        """Config key prefix -> ``build_spec`` default."""
        return {f.name: default for f, default in zip(fields(cls), cls.config_defaults)}

    @classmethod
    def from_config(cls, hyper, d):
        """Output d's operator from config values ``hyper`` ({key: value}) or defaults."""
        return cls(*(hyper.get(f"{key}{d}", v) for key, v in cls.config_keys().items()))

    @classmethod
    def from_dict(cls, doc):
        """Inverse of ``to_dict``; KeyError names a missing field."""
        return cls(*(doc[f.name] for f in fields(cls)))

    def to_dict(self) -> dict:
        """Fit-file form: ``{"type": kind, field: value, ...}``."""
        return {"type": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @property
    def num_slots(self) -> int:
        """Packed slots of this operator."""
        return len(fields(self))

    def packed_slots(self, d):
        """(labels, packed values) of this operator as output d."""
        labels, vals = [], []
        for f in fields(self):
            x = getattr(self, f.name)
            if x <= 0:
                raise DataError(
                    f"{f.name}={x} for output {d} must be positive to pack (log transform)"
                )
            labels.append(f"log_{f.name}[d={d}]")
            vals.append(math.log(x))
        return labels, vals

    def unpacked(self, vals):
        """An operator of this kind from its packed values; see ``packed_slots``."""
        return type(self)(*(math.exp(v) for v in vals))

    def packed_gradient(self, dcoeffs):
        """Gradient in the packed slots from dcoeffs = d/d(a_0..a_P), one column per frequency.

        The fields are the last coefficients, so d/dlog x = x d/dx on their rows.
        """
        x = np.array([[getattr(self, f.name)] for f in fields(self)])
        return np.sum(x * dcoeffs[-x.shape[0]:], axis=1)


@dataclass(frozen=True)
class OdeOperator(_OperatorKind):
    """Linear ODE operator a_0 d^P/dt^P + a_1 d^{P-1}/dt^{P-1} + ... + a_P.

    ``coeffs`` is the tuple (a_0, ..., a_P); the operator order is
    ``len(coeffs) - 1``.  The leading coefficient must be nonzero.  The
    coefficients pack raw, one slot each, because their sign is free.
    """

    coeffs: tuple

    kind = "odeP"
    config_defaults = ((1.0, 3.0, 2.0),)

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise DataError("operator needs order >= 1 (at least two coefficients)")
        if coeffs[0] == 0.0:
            raise DataError("leading coefficient a_0 must be nonzero")
        if not all(math.isfinite(a) for a in coeffs):
            raise DataError("operator coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def to_dict(self) -> dict:
        return {"type": self.kind, "coeffs": list(self.coeffs)}

    @property
    def num_slots(self) -> int:
        return len(self.coeffs)

    def packed_slots(self, d):
        return [f"coeff_a{i}[d={d}]" for i in range(len(self.coeffs))], list(self.coeffs)

    def unpacked(self, vals):
        return OdeOperator(tuple(vals))

    def packed_gradient(self, dcoeffs):
        return np.sum(dcoeffs, axis=1)


@dataclass(frozen=True)
class Ode1Params(_OperatorKind):
    """First-order system df/dt + gamma * f = u, with decay rate gamma > 0.

    As an operator its coefficients are (1, gamma).
    """

    gamma: float

    kind = "ode1"
    config_defaults = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise DataError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class Ode2Params(_OperatorKind):
    """Mass-damper-spring system m f'' + c f' + b f = u.

    Requires m > 0 and b > 0; the damper c may be zero (undamped).  A zero
    damper cannot be packed for optimization (log transform), but kernel
    evaluation works.
    """

    mass: float
    damper: float
    spring: float

    kind = "ode2"
    config_defaults = (1.0, 3.0, 2.0)

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "damper", float(self.damper))
        object.__setattr__(self, "spring", float(self.spring))
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise DataError(f"mass must be positive, got {self.mass}")
        if not (self.spring > 0 and math.isfinite(self.spring)):
            raise DataError(f"spring must be positive, got {self.spring}")
        if not (self.damper >= 0 and math.isfinite(self.damper)):
            raise DataError(f"damper must be nonnegative, got {self.damper}")


# model and fit-file name -> operator kind
OPERATOR_KINDS = {cls.kind: cls for cls in (Ode1Params, Ode2Params, OdeOperator)}


def _as_readonly(a, dtype=float, ndim=1):
    out = np.array(a, dtype=dtype)
    if out.ndim != ndim:
        raise DataError(f"expected {ndim}-d array, got shape {out.shape}")
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# model specifications


class _ModelKind:
    """What the other modules read off a model kind, so none switches on it.

    A spec's fields are its head fields, then the four checked here.  Each
    kind states its fit-file ``kind``, its head checks and fit-file form,
    each output's packed head slot count (``head_sizes``), the slots'
    labels and values (``head_slots``) and their inverse (``with_packed``),
    and ``check_inputs``, DataError for inputs that do not fit.
    """

    def __post_init__(self):
        self._check_heads()
        q = int(self.num_forces)
        if q < 1:
            raise DataError("num_forces must be >= 1")
        object.__setattr__(self, "num_forces", q)
        ell = _as_readonly(self.lengthscales)
        if ell.shape != (q,):
            raise DataError(f"lengthscales must have shape ({q},), got {ell.shape}")
        if not np.all(ell > 0):
            raise DataError("lengthscales must be positive")
        object.__setattr__(self, "lengthscales", ell)
        d = self.num_outputs
        sens = _as_readonly(self.sensitivities, ndim=2)
        if sens.shape != (d, q):
            raise DataError(f"sensitivities must be {d}x{q}, got {sens.shape}")
        object.__setattr__(self, "sensitivities", sens)
        noise = _as_readonly(self.noise_vars)
        if noise.shape != (d,):
            raise DataError(f"noise_vars must have shape ({d},), got {noise.shape}")
        if not np.all(noise > 0):
            raise DataError("noise variances must be positive")
        object.__setattr__(self, "noise_vars", noise)

    @classmethod
    def from_dict(cls, doc):
        """Inverse of ``to_dict``; KeyError names a missing field."""
        heads = cls._heads_from_dict(doc)
        ell = doc["lengthscales"]
        return cls(*heads, len(ell), ell, doc["sensitivities"], doc["noise_vars"])

    def to_dict(self) -> dict:
        """Fit-file form: ``{"kind": kind, field: value, ...}`` without num_forces."""
        shared = ("lengthscales", "sensitivities", "noise_vars")
        return {"kind": self.kind, **self._heads_to_dict(),
                **{key: getattr(self, key).tolist() for key in shared}}


@dataclass(frozen=True, eq=False)
class LfmSpec(_ModelKind):
    """Latent force model: D outputs driven through ODE operators by Q forces.

    Fields
    ------
    outputs       : tuple of D operator parameter sets (Ode1Params,
                    Ode2Params or OdeOperator)
    num_forces    : Q
    lengthscales  : (Q,) positive, one per latent force
    sensitivities : (D, Q) real coupling matrix
    noise_vars    : (D,) positive observation noise variances
    """

    outputs: tuple
    num_forces: int
    lengthscales: np.ndarray
    sensitivities: np.ndarray
    noise_vars: np.ndarray

    kind = "lfm"

    def _check_heads(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.outputs:
            raise DataError("spec needs at least one output")
        for op in self.outputs:
            if not isinstance(op, _OperatorKind):
                raise DataError(f"unsupported output operator: {op!r}")

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def head_sizes(self) -> list:
        return [op.num_slots for op in self.outputs]

    def head_slots(self):
        slots = [op.packed_slots(d) for d, op in enumerate(self.outputs, start=1)]
        return [x for labels, _ in slots for x in labels], [x for _, vals in slots for x in vals]

    def with_packed(self, head, *shared):
        parts = np.split(head, np.cumsum(self.head_sizes())[:-1])
        ops = tuple(op.unpacked(x) for op, x in zip(self.outputs, parts))
        return LfmSpec(ops, self.num_forces, *shared)

    @staticmethod
    def _heads_from_dict(doc):
        outputs = []
        for o in doc["outputs"]:
            kind = OPERATOR_KINDS.get(o["type"])
            if kind is None:
                raise ValueError(f"unknown output type {o['type']!r}")
            outputs.append(kind.from_dict(o))
        return (outputs,)

    def _heads_to_dict(self):
        return {"outputs": [op.to_dict() for op in self.outputs]}

    def check_inputs(self, inputs):
        if inputs.ndim != 1:
            raise DataError("LFM data must have scalar time inputs")
        if np.any(inputs < 0):
            i = int(np.argmax(inputs < 0))
            raise DataError(f"negative time {inputs[i]} at row {i}")


@dataclass(frozen=True, eq=False)
class MogpSpec(_ModelKind):
    """Convolved multi-output GP over R^p with Gaussian smoothing kernels.

    One isotropic inverse-width per output, packed as its log; one latent
    copy per force.
    """

    input_dim: int
    inv_widths: np.ndarray
    num_forces: int
    lengthscales: np.ndarray
    sensitivities: np.ndarray
    noise_vars: np.ndarray

    kind = "mogp"

    def _check_heads(self):
        p = int(self.input_dim)
        if p < 1:
            raise DataError("input_dim must be >= 1")
        object.__setattr__(self, "input_dim", p)
        pd = _as_readonly(self.inv_widths)
        if pd.ndim != 1 or pd.size < 1:
            raise DataError("inv_widths must be a nonempty vector")
        if not np.all(pd > 0):
            raise DataError("inverse widths must be positive")
        object.__setattr__(self, "inv_widths", pd)

    @property
    def num_outputs(self) -> int:
        return self.inv_widths.size

    def head_sizes(self) -> list:
        return [1] * self.num_outputs

    def head_slots(self):
        labels = [f"log_inv_width[d={d}]" for d in range(1, self.num_outputs + 1)]
        return labels, [math.log(w) for w in self.inv_widths]

    def with_packed(self, head, *shared):
        return MogpSpec(self.input_dim, np.exp(head), self.num_forces, *shared)

    @staticmethod
    def _heads_from_dict(doc):
        return doc["input_dim"], doc["inv_widths"]

    def _heads_to_dict(self):
        return {"input_dim": self.input_dim, "inv_widths": self.inv_widths.tolist()}

    def check_inputs(self, inputs):
        dim = 1 if inputs.ndim == 1 else inputs.shape[1]
        if dim != self.input_dim:
            raise DataError(
                f"input dimension {dim} does not match spec input_dim {self.input_dim}"
            )


# fit-file spec kind -> model kind
SPEC_KINDS = {cls.kind: cls for cls in (LfmSpec, MogpSpec)}


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True, eq=False)
class Dataset:
    """Stacked observations across outputs.

    ``output_ids`` are 1-based.  ``inputs`` is (N,) of times for LFM data or
    (N, p) of locations for MOGP data.  Row order is preserved; feature and
    covariance matrices follow it.
    """

    output_ids: np.ndarray
    inputs: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.output_ids, dtype=int)
        if ids.ndim != 1:
            raise DataError("output_ids must be a vector")
        ids = ids.copy()
        ids.flags.writeable = False
        object.__setattr__(self, "output_ids", ids)
        x = np.array(self.inputs, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != ids.size:
            raise DataError(f"inputs shape {x.shape} does not match {ids.size} rows")
        x.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        y = _as_readonly(self.y)
        if y.shape != (ids.size,):
            raise DataError(f"y must have shape ({ids.size},), got {y.shape}")
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.output_ids.size

    @property
    def input_dim(self) -> int:
        return 1 if self.inputs.ndim == 1 else self.inputs.shape[1]

    @classmethod
    def stacked(cls, per_output_inputs, per_output_y):
        """Build a dataset from per-output sequences, ordered by output."""
        ids, xs, ys = [], [], []
        for d, (x, y) in enumerate(zip(per_output_inputs, per_output_y), start=1):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            ids.append(np.full(len(y), d))
            xs.append(x)
            ys.append(y)
        return cls(np.concatenate(ids), np.concatenate(xs), np.concatenate(ys))


def validate_dataset(data: Dataset, spec) -> None:
    """Raise DataError unless ``data`` is consistent with ``spec``.

    Empty datasets are valid.  LFM inputs must be nonnegative scalar times
    (response integrals start at 0); MOGP inputs must match the spec's
    input dimension (each kind's ``check_inputs``).
    """
    if not isinstance(spec, _ModelKind):
        raise DataError(f"unsupported spec type: {type(spec).__name__}")
    if len(data) == 0:
        return
    d_max = spec.num_outputs
    ids = data.output_ids
    bad = (ids < 1) | (ids > d_max)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DataError(
            f"output_id {ids[i]} at row {i} outside 1..{d_max}"
        )
    spec.check_inputs(data.inputs)
    if not np.all(np.isfinite(data.y)) or not np.all(np.isfinite(data.inputs)):
        raise DataError("inputs and observations must be finite")


# ---------------------------------------------------------------------------
# hyperparameter packing

@dataclass(frozen=True)
class HyperParamVector:
    """Flat real view of a spec's free hyperparameters.

    Positive parameters (operator constants, lengthscales, noise variances)
    are log-transformed; sensitivities are raw; general OdeOperator
    coefficients are raw because their sign is unconstrained.  ``labels``
    documents the index map, one entry per slot.
    """

    values: np.ndarray
    labels: tuple

    def __post_init__(self):
        v = _as_readonly(self.values)
        if v.size != len(self.labels):
            raise DataError("values/labels length mismatch")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return self.values.size


def pack(spec) -> HyperParamVector:
    """Flatten a spec into the optimizer's packed vector.

    Index map: per-output head slots first (outputs in order, ``head_slots``),
    then log lengthscales, log noise variances and sensitivities row-major.
    """
    if not isinstance(spec, _ModelKind):
        raise DataError(f"cannot pack {type(spec).__name__}")
    labels, vals = spec.head_slots()
    for q in range(1, spec.num_forces + 1):
        labels.append(f"log_lengthscale[q={q}]")
        vals.append(math.log(spec.lengthscales[q - 1]))
    for d in range(1, spec.num_outputs + 1):
        labels.append(f"log_noise_var[d={d}]")
        vals.append(math.log(spec.noise_vars[d - 1]))
    for d in range(1, spec.num_outputs + 1):
        for q in range(1, spec.num_forces + 1):
            labels.append(f"sensitivity[d={d},q={q}]")
            vals.append(spec.sensitivities[d - 1, q - 1])
    return HyperParamVector(np.array(vals, dtype=float), tuple(labels))


def unpack(v, template):
    """Rebuild a spec of ``template``'s shape from a packed vector.

    Inverse of :func:`pack` up to floating-point round-trip of log/exp.
    Noise variances are floored at NOISE_FLOOR so the likelihood's Sigma
    stays invertible.  Raises on length mismatch or non-finite slots.
    """
    vals = v.values if isinstance(v, HyperParamVector) else np.asarray(v, dtype=float)
    q, nd = template.num_forces, template.num_outputs
    sizes = [sum(template.head_sizes()), q, nd, nd * q]
    if vals.ndim != 1 or vals.size != sum(sizes):
        raise DataError(f"packed vector has {vals.size} slots, expected {sum(sizes)}")
    if not np.all(np.isfinite(vals)):
        i = int(np.argmax(~np.isfinite(vals)))
        raise DataError(f"non-finite value at packed slot {i}")
    head, log_ell, log_noise, sens = np.split(vals, np.cumsum(sizes)[:-1])
    noise = np.maximum(np.exp(log_noise), NOISE_FLOOR)
    return template.with_packed(head, np.exp(log_ell), sens.reshape(nd, q), noise)


# ---------------------------------------------------------------------------
# CSV format: `output_id,t,y` (LFM) or `output_id,x1,...,xp,y` (MOGP)


def read_dataset_csv(path, require_y=True) -> Dataset:
    """Read a dataset CSV; infers LFM vs MOGP layout from the header.

    With ``require_y=False`` the trailing ``y`` column may be absent (input
    grids for kernel evaluation); y is then filled with zeros.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file (missing header)") from None
        header = [h.strip() for h in header]
        if header[0] != "output_id":
            raise DataError(f"{path}: first column must be output_id, got {header[0]}")
        has_y = header[-1] == "y"
        if require_y and not has_y:
            raise DataError(f"{path}: missing y column")
        in_cols = header[1 : -1 if has_y else len(header)]
        if not in_cols:
            raise DataError(f"{path}: no input columns")
        if in_cols != ["t"] and in_cols != [f"x{i}" for i in range(1, len(in_cols) + 1)]:
            raise DataError(f"{path}: input columns must be t or x1..xp, got {in_cols}")
        body = fh.read()
    ids, fields = _read_rows(path, body, len(header))
    x = fields[:, : len(in_cols)]
    x = np.ascontiguousarray(x[:, 0] if in_cols == ["t"] else x)
    y = np.ascontiguousarray(fields[:, -1]) if has_y else np.zeros(len(ids))
    return Dataset(ids, x, y)


# Characters outside the C-parsed path: numpy reads some non-ASCII digits
# as other numbers and strips \x1c-\x1f as blanks, where int() and float()
# refuse both.
_CONTROL = "".join(chr(c) for c in [*range(32), 127] if chr(c) not in "\t\n\r")


def _read_rows(path, body, width, ids=True):
    """(output ids, remaining fields) of the data lines after the header.

    With ``ids`` false every field is a float, as in a bare input grid, and
    the ids are None.  numpy's C parser reads a well-formed body.  On any
    failure (a malformed or whitespace-only line, a quoted field, no rows)
    the lines are parsed again one by one, which skips blank lines and
    names the line at fault.  On the input the C parser accepts, both give
    the same arrays bit for bit.
    """
    first = 1 if ids else 0
    if body.isascii() and not any(c in body for c in _CONTROL):
        dtype = [("id", int)] if ids else []
        dtype.append(("fields", float, (width - first,)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                table = np.loadtxt(
                    io.StringIO(body, newline=""), delimiter=",", comments=None, ndmin=1,
                    dtype=dtype,
                )
            return (table["id"].copy() if ids else None), table["fields"].copy()
        except (ValueError, Warning):
            pass
    id_list, fields = [], []
    for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            if ids:
                id_list.append(int(row[0]))
            fields.append([float(s) for s in row[first:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    fields = np.array(fields, dtype=float).reshape(len(fields), width - first)
    return (np.array(id_list, dtype=int) if ids else None), fields


# ``write_csv_columns`` formats the second half of a table of this many
# cells or more in a forked child.  The fork and the reap cost about 2.5 ms
# each in a 140 MB process, and the child's copy-on-write faults slow this
# process's half.  Six-column tables, in a 140 MB process on a 2-vCPU VM
# (alternating, medians of 30-40): the child lost at 12000 cells (15.4
# against 10.6 ms), about broke even at 18000 (22.5 against 23.5 ms in one
# run, slower in 29 of 30 in another), and won at 24000 (26.7 against 31.5
# ms, 36 of 40) and at 120000 (95 against 148 ms, 28 of 30).
FORK_MIN_CELLS = 24_000


def write_csv_columns(path, header, columns) -> None:
    """Write a CSV table given as a header and equal-length 1-D columns.

    Each column is an array or a sequence that converts to one.
    Float columns are written with ``repr`` (the shortest string that
    reads back to the same double), other columns with ``str``; lines end
    in CRLF.  For the numeric cells and plain header names written here
    the bytes equal those of ``csv.writer`` with ``repr``-formatted floats.
    No rows (or no columns) writes the header line only.

    A table of ``FORK_MIN_CELLS`` cells or more is formatted on two CPUs
    where the process may run on two (``features._helper_count``) and
    ``os.fork`` exists: a forked child formats the second half of the rows
    while this process writes the first, and sends its text back through
    a pipe.  If the fork or the child fails, this process formats that
    half itself, so the bytes are the same either way.  The child is
    reaped before the call returns or raises.
    """
    from . import features  # features imports this module

    cols = [(repr if col.dtype.kind == "f" else str, col.tolist())
            for col in map(np.asarray, columns)]
    rows = half = len(cols[0][1]) if cols else 0
    child = None
    if (rows * len(cols) >= FORK_MIN_CELLS and hasattr(os, "fork")
            and features._helper_count() > 0):
        half = rows // 2
        child = _ChildRows(cols, half, rows)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(_row_lines(cols, 0, half))
            text = child.text() if child else None
            if text is None:
                fh.writelines(_row_lines(cols, half, rows))
            else:
                fh.flush()
                fh.buffer.write(text)
    finally:
        if child:
            child.close()


def _row_lines(cols, lo, hi):
    """The CSV lines of rows [lo, hi) of ``(format, values)`` columns, each ending in CRLF."""
    cells = [map(fmt, values[lo:hi]) for fmt, values in cols]
    if cells:
        cells[-1] = map("{}\r\n".format, cells[-1])
    return map(",".join, zip(*cells))


class _ChildRows:
    """Rows [lo, hi) of a table, formatted by a forked child and sent through a pipe.

    The child sends the length of the rows' UTF-8 text as 8 bytes, then
    the text, and leaves by ``os._exit``: it never returns into the
    caller's stack and never flushes the stdio buffers it shares with this
    process.  It runs only ``repr``, ``str``, ``join``, ``encode`` and
    ``os.write``.
    """

    def __init__(self, cols, lo, hi):
        self.pid, self.sent = None, False
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            pass  # no child: text() returns None
        if self.pid == 0:
            status = 1
            try:
                os.close(self.fd)
                text = "".join(_row_lines(cols, lo, hi)).encode()
                for part in (len(text).to_bytes(8, "little"), text):
                    view = memoryview(part)
                    while view:
                        view = view[os.write(w, view):]
                # the reader sees the end of the text now, not after this
                # process has released its memory
                os.close(w)
                status = 0
            finally:
                os._exit(status)
        os.close(w)

    def text(self):
        """A view of the child's text, or None if there is no child or it did not send all of it."""
        if self.pid is None:
            return None
        with open(self.fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        if len(data) != 8 + int.from_bytes(data[:8], "little"):
            return None
        self.sent = True
        return memoryview(data)[8:]

    def close(self):
        """Reap the child, killed first unless it sent all its text, and close the pipe."""
        if self.pid is not None:
            # a process that ignores SIGCHLD has its children reaped for it
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                if not self.sent:
                    os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.fd)


def write_dataset_csv(path, data: Dataset) -> None:
    """Write a dataset in the canonical CSV layout."""
    p = data.input_dim
    scalar = data.inputs.ndim == 1
    header = ["output_id"] + (["t"] if scalar else [f"x{i}" for i in range(1, p + 1)]) + ["y"]
    write_csv_columns(path, header, [data.output_ids, *np.atleast_2d(data.inputs.T), data.y])
