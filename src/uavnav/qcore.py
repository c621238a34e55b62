"""Tabular Q-learning machinery shared by both agents.

A Q-table maps (state, action) to a learned value, defaulting to 0.0 for
anything never updated. Every table is one dense float64 array of one
shape, ``QTable.q[column, cell, a]``, indexed by flat cell index. The
goal-conditioned planner has one column per destination, so the
destination is part of its state; the fixed-destination planner and the
coverage agent have one column. A state is a ``(column, cell)`` pair and
``q[s]`` is its row; ``QTable.column`` maps a destination to its column.
Each column is one contiguous ``q[column]``, in the order a checkpoint
stores it, so memory, file and decode share one order.
At the default 20 x 20 x 5 grid the planner's array takes 192 MB; a table
over 2 GiB (``MAX_TABLE_BYTES``) is refused before it is allocated.

The update is the standard one-step bootstrap

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))

and action selection is epsilon-greedy with uniform random tie-breaking
among maximizers, so the symmetric grid picks up no directional bias.
``bootstrap`` holds the update arithmetic, for Python floats and numpy
arrays alike; the planner's lockstep loop in ``agents`` applies it to a
whole batch of episodes at once. Every loop holds a tie set as a 6-bit
mask, bit a for action a, built here alone: ``tie_mask`` for one row,
``tie_masks`` for a batch. ``PICKS`` decodes a mask for the scalar loops
(the ties, their count n and the bits a pick draws), ``TIE_COUNT`` and
``TIE_NTH`` for the lockstep. The single-entry update and the argmax with
random ties, taken one step at a time, are the references in
``tests/reference.py``.

A checkpoint (format v8, ``save``/``load``) is an uncompressed zip of five
``.npy`` members, readable with ``np.load(path, allow_pickle=False)``:

- ``occupied``: uint8, one row per column, the ``np.packbits`` of which of
  that column's ``(cell, a)`` entries are stored, ceil(cells * 6 / 8) bytes
  with zero padding bits; an entry is stored when its bits are not zero, so
  a ``-0.0`` is kept
- ``codes``: uint16, 1-D, one per stored entry in ``(column, cell, a)``
  order, so each column's entries lie together. The entries are cut into
  runs of ``RUN_LENGTH`` (32,768) consecutive entries, the last run
  shorter, and each entry is stored as its position in its run's dictionary
- ``dictionary``: float64, 1-D, the runs' dictionaries one after another;
  a run's dictionary is its distinct values, ascending by their bits as
  uint64 (``np.unique`` of the run's ``view(np.uint64)``), so a ``-0.0``
  is a value of its own
- ``sizes``: uint16, 1-D, the length of each run's dictionary
- ``meta``: a 0-d unicode array holding a JSON object with
  ``format_version`` and the facts that loading checks against the
  config: ``grid``, ``columns`` and ``f_mhz`` (the band, null for the
  planner)

A column's entries start at the number of set bits in the rows before it;
entry ``i`` is entry ``codes[i]`` of the dictionary of run
``i // RUN_LENGTH``. ``save`` writes the zip itself, with fixed
timestamps and without zip64 (a table of at most ``MAX_TABLE_BYTES`` fits
the 32-bit sizes), so a table writes the same
bytes on every Python, and it returns the sha256 of those bytes, hashed as
they are written. ``load`` accepts exactly what ``save`` writes: every zip
header, every ``.npy`` header and the meta text must be the bytes ``save``
writes for them (the zip headers are packed by the same two functions,
``_headers`` and ``_directory``, on both sides), and it checks every
member's CRC, the version, dtypes, shapes, padding bits, that the number of
set bits is the number of codes, that there is one size per run and the
sizes add up to the dictionary's length, that every code is below its
run's size, that each run's dictionary is strictly ascending and has no
entry that no code of its run uses, that every dictionary value is finite
and that none is ``+0.0`` (so a table has one encoding). It raises
``CheckpointError`` on anything else. The loaded table keeps the members as
views of the bytes it was given: ``column_values`` decodes one column from
them, and ``q`` builds the dense array, every bit as it was saved, only
when something asks for it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import struct
import zlib
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .gridworld import ACTIONS, Action, GridSpec, is_int

FORMAT_VERSION = 8
_MEMBERS = ("occupied", "codes", "dictionary", "sizes", "meta")
# Stored entries are dictionary-coded in runs of RUN_LENGTH, so that a run's
# codes, and the length of its dictionary, fit uint16
RUN_LENGTH = 1 << 15

N_ACTIONS = len(ACTIONS)
# The largest dense table a QTable allocates. The goal-conditioned planner's
# table grows with the square of the cell count: 2 GiB is about 6,688 cells.
MAX_TABLE_BYTES = 2 << 30
# Column blocks of about this many bytes of values are read or written at a
# time, so that no whole-table temporary is made.
_BLOCK_BYTES = 1 << 18
# _POPCOUNT[b]: the number of set bits in the byte b
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, wrong version, or inconsistent."""


@dataclass(frozen=True)
class Hyper:
    """Learning rate and discount."""

    alpha: float = 0.8
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exponentially decaying exploration rate with a floor."""

    epsilon0: float = 1.0
    epsilon_min: float = 0.05
    decay: float = 0.995

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon0 <= 1.0:
            raise ValueError(f"epsilon0 must be in (0, 1], got {self.epsilon0}")
        if not 0.0 <= self.epsilon_min <= self.epsilon0:
            raise ValueError("epsilon_min must be in [0, epsilon0]")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")

    def first(self, n: int) -> np.ndarray:
        """The rates of episodes 0 to n - 1 as float64: episode e's is
        ``max(epsilon_min, epsilon0 * decay ** e)`` bit for bit, since
        ``x ** e`` is ``pow(x, e)``, float products round alike in numpy, and
        ``max(lo, y)`` is y only where y > lo."""
        powers = np.fromiter(map(pow, repeat(self.decay), range(n)), np.float64, n)
        rates = self.epsilon0 * powers
        return np.where(rates > self.epsilon_min, rates, self.epsilon_min)


def require_table_fits(grid: GridSpec, columns: int) -> None:
    """Raise ValueError when a table's values would exceed ``MAX_TABLE_BYTES``."""
    nbytes = grid.n_cells * columns * N_ACTIONS * 8
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"a {grid.nx} x {grid.ny} x {grid.nz} grid ({grid.n_cells:,} cells) needs "
            f"a {nbytes:,}-byte Q-table, over the 2 GiB limit ({MAX_TABLE_BYTES:,} bytes)"
        )


class _Stored(NamedTuple):
    """A loaded table's members, views of the checkpoint's bytes."""

    occupied: np.ndarray  # uint8, (columns, row bytes)
    offsets: np.ndarray  # int64, (columns + 1,): where each column starts in codes
    codes: np.ndarray  # uint16, (stored entries,)
    dictionary: np.ndarray  # float64, the runs' dictionaries, concatenated
    starts: np.ndarray  # int64, (runs + 1,): where each run's dictionary starts
    entries: int  # entries per column, cells * 6

    def bits(self, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
        """Which entries of columns ``c0:c1`` are stored, (c1 - c0) x entries,
        and their values in order."""
        bits = np.unpackbits(self.occupied[c0:c1], axis=1, count=self.entries).view(bool)
        lo, hi = int(self.offsets[c0]), int(self.offsets[c1])
        values = np.empty(hi - lo)
        # a run at a time, so each slice of codes reads one dictionary
        for run in range(lo // RUN_LENGTH, -(-hi // RUN_LENGTH)):
            a, b = max(lo, run * RUN_LENGTH), min(hi, (run + 1) * RUN_LENGTH)
            run_dictionary = self.dictionary[self.starts[run] : self.starts[run + 1]]
            values[a - lo : b - lo] = run_dictionary[self.codes[a:b]]
        return bits, values


class QTable:
    """(state, action) -> value store over a grid, with its band.

    The values are one float64 array ``q[column, cell, a]``, indexed by
    flat cell index (``GridSpec.index``), with ``columns`` either 1 or one
    per cell of the grid (a column per destination). Every value starts at
    exactly 0.0. ``n_states`` counts the rows that hold a non-zero value and
    ``entries`` lists the non-zero values; a checkpoint stores every entry
    whose bits are not zero, so it keeps a ``-0.0`` as well. A table is
    single-writer during training and treated as frozen afterwards.

    ``q`` is allocated on first use. A table that ``load`` returns holds
    its checkpoint's members instead: ``column_values`` and ``n_states``
    decode them a block of columns at a time, and ``q`` builds the dense
    array from them once, after which the table is dense like any other.

    ``f_mhz`` is the band a coverage table was trained at, and None for
    the planner's table; ``kind`` names which of the two a table is.
    """

    def __init__(self, grid: GridSpec, columns: int = 1, f_mhz: float | None = None) -> None:
        if not is_int(columns) or columns not in (1, grid.n_cells):
            raise ValueError(f"columns must be 1 or {grid.n_cells}, got {columns!r}")
        require_table_fits(grid, columns)
        self.grid = grid
        self.columns = columns
        self.f_mhz = f_mhz
        self._q: np.ndarray | None = None
        self._stored: _Stored | None = None

    @property
    def kind(self) -> str:
        """``"strategic"`` for the planner's table, ``"adaptive"`` for a band's."""
        return "strategic" if self.f_mhz is None else "adaptive"

    @property
    def q(self) -> np.ndarray:
        """The dense values, ``q[column, cell, a]``."""
        if self._q is None:
            q = np.zeros((self.columns, self.grid.n_cells, N_ACTIONS))
            if self._stored is not None:
                for c0, c1 in self._blocks():
                    q[c0:c1] = self._block(c0, c1)
            self._q, self._stored = q, None
        return self._q

    def column(self, dest):
        """The column of a destination's flat index, or of an array of them."""
        return dest if self.columns > 1 else 0

    def column_values(self, col: int) -> np.ndarray:
        """The values of one column, ``q[col]``, without building ``q``
        on a loaded table."""
        return self._block(col, col + 1)[0]

    def _blocks(self) -> Iterator[tuple[int, int]]:
        """Column ranges ``c0:c1`` of about ``_BLOCK_BYTES`` of values each."""
        per = max(1, _BLOCK_BYTES // (self.grid.n_cells * N_ACTIONS * 8))
        for c0 in range(0, self.columns, per):
            yield c0, min(c0 + per, self.columns)

    def _block(self, c0: int, c1: int) -> np.ndarray:
        """Columns ``c0:c1``, (c1 - c0) x cells x 6: the slice ``q[c0:c1]``,
        or on a loaded table a new array decoded from its members."""
        if self._stored is None:
            return self.q[c0:c1]
        bits, values = self._stored.bits(c0, c1)
        block = np.zeros(bits.size)
        # scattering to indices is faster than through the boolean mask
        block[np.flatnonzero(bits)] = values
        return block.reshape(c1 - c0, self.grid.n_cells, N_ACTIONS)

    def n_states(self) -> int:
        """The number of rows that hold a value other than +0.0 and -0.0."""
        # elementwise ORs of the six actions' values: .any(axis=-1) would run
        # one short reduction per row
        return sum(
            int(np.count_nonzero(reduce(np.logical_or, self._block(c0, c1).T)))
            for c0, c1 in self._blocks()
        )

    def entries(self) -> Iterator[tuple[tuple[int, int], Action, float]]:
        """Non-zero entries as ``((column, cell), action, value)``, in column
        order: sorted by column, then cell, then action."""
        where = np.nonzero(self.q)
        for c, k, a, v in zip(*(i.tolist() for i in where), self.q[where].tolist()):
            yield (c, k), ACTIONS[a], v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.columns == other.columns
            and self.f_mhz == other.f_mhz
            and np.array_equal(self.q, other.q)
        )


def bootstrap(q, r, max_next, alpha: float, gamma: float):
    """The updated Q(s, a), from its old value ``q`` and max_a' Q(s', a').

    Written once for Python floats and numpy arrays alike, so every loop
    rounds the update the same way.
    """
    # weighted form of the standard update; exact when alpha is 1
    return (1.0 - alpha) * q + alpha * (r + gamma * max_next)


# TIES[m]: the actions whose bit is set in the tie mask m, ascending. A set
# of actions as a mask has bit a for action a, _BITS[a].
TIES: tuple[tuple[int, ...], ...] = tuple(
    tuple(a for a in range(N_ACTIONS) if m >> a & 1) for m in range(1 << N_ACTIONS)
)
# PICKS[m]: the ties of mask m, their count n and n.bit_length(), the bits a
# pick of one of them draws.
PICKS: tuple[tuple[tuple[int, ...], int, int], ...] = tuple(
    (ties, len(ties), len(ties).bit_length()) for ties in TIES
)
# The same as numpy lookups: mask m holds TIE_COUNT[m] actions, and its j-th
# in ascending order is TIE_NTH[m * N_ACTIONS + j].
TIE_COUNT = np.array([len(t) for t in TIES], dtype=np.intp)
TIE_NTH = np.array([t + (0,) * (N_ACTIONS - len(t)) for t in TIES], dtype=np.intp).ravel()
_BITS = 1 << np.arange(N_ACTIONS)


def tie_masks(values: np.ndarray) -> np.ndarray:
    """Per row of ``values`` (n x k, the first k actions), the mask of the
    actions whose value is the row's maximum, as an int array. A row that
    holds NaN has mask 0."""
    # elementwise maxima of the k columns: .max(axis=1) would run one short
    # reduction per row
    return (values == reduce(np.maximum, values.T)[:, None]) @ _BITS[: values.shape[1]]


def tie_mask(row: Sequence[float], candidates: Sequence[int]) -> int:
    """The mask of the candidates with the highest value in ``row``, as
    ``tie_masks`` gives it for a row without NaN: ties compare with ==, so
    ``-0.0`` ties ``0.0``."""
    best = max([row[a] for a in candidates])
    mask = 0
    for a in candidates:
        if row[a] == best:
            mask |= 1 << a
    return mask


def save(table: QTable, path) -> str:
    """Write a format-v8 checkpoint to exactly ``path``; returns its sha256.

    Only stored entries are written, in column order, a block of columns at
    a time, so the same values always give the same bytes, whatever order
    they were written in. Each run of ``RUN_LENGTH`` entries is encoded as
    soon as it is complete; the entries of a run not yet complete carry
    over to the next block.
    """
    entries = table.grid.n_cells * N_ACTIONS
    occupied = np.empty((table.columns, (entries + 7) // 8), dtype=np.uint8)
    codes, dictionary, sizes = [], [], []

    def encode(run: np.ndarray) -> None:
        distinct, inverse = np.unique(run.view(np.uint64), return_inverse=True)
        codes.append(inverse.astype(np.uint16))
        dictionary.append(distinct)  # the float64 values' bytes
        sizes.append(len(distinct))

    pending = np.empty(0)
    for c0, c1 in table._blocks():
        block = table._block(c0, c1).reshape(c1 - c0, entries)
        stored = block.view(np.uint64) != 0
        occupied[c0:c1] = np.packbits(stored, axis=1)
        # gathering at indices is faster than with the boolean mask
        pending = np.concatenate((pending, block.reshape(-1)[np.flatnonzero(stored)]))
        complete = len(pending) - len(pending) % RUN_LENGTH
        for at in range(0, complete, RUN_LENGTH):
            encode(pending[at : at + RUN_LENGTH])
        pending = pending[complete:]
    if len(pending):
        encode(pending)
    meta_array = np.array(_meta_text(table))
    n_codes, n_dictionary = sum(map(len, codes)), sum(sizes)
    return _write_zip(
        path,
        (
            ("occupied", [_npy_header(occupied.dtype, occupied.shape), occupied]),
            ("codes", [_npy_header(np.dtype(np.uint16), (n_codes,)), *codes]),
            ("dictionary", [_npy_header(np.dtype(np.float64), (n_dictionary,)), *dictionary]),
            ("sizes", [_npy_header(np.dtype(np.uint16), (len(sizes),)),
                       np.array(sizes, dtype=np.uint16)]),
            ("meta", [_npy_header(meta_array.dtype, ()), meta_array]),
        ),
    )


def _meta_text(table: QTable) -> str:
    """The JSON text of a table's ``meta`` member."""
    meta = {
        "format_version": FORMAT_VERSION,
        "grid": dataclasses.asdict(table.grid),
        "columns": table.columns,
        "f_mhz": table.f_mhz,
    }
    return json.dumps(meta, sort_keys=True)


def _npy_header(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    """The version 1.0 ``.npy`` header of a C-order array."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header,
        {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape},
    )
    return header.getvalue()


# Zip records (APPNOTE.TXT 4.3.7, 4.3.12, 4.3.16): local file header,
# central directory header and end of central directory.
_LOCAL = struct.Struct("<IHHHHHIIIHH")
_CENTRAL = struct.Struct("<IHHHHHHIIIHHHHHII")
_END = struct.Struct("<IHHHHIIH")
_LOCAL_SIG, _CENTRAL_SIG, _END_SIG = 0x04034B50, 0x02014B50, 0x06054B50
# version 2.0 of the format; 1980-01-01 00:00 in MS-DOS form
_ZIP_VERSION, _DOS_TIME, _DOS_DATE = 20, 0, (1 << 5) | 1


def _headers(name: str, crc: int, size: int, offset: int) -> tuple[bytes, bytes]:
    """The local file header and the central directory record of the stored
    member ``name``.npy, whose local header starts at ``offset``."""
    filename = f"{name}.npy".encode()
    fields = (_DOS_TIME, _DOS_DATE, crc, size, size, len(filename))
    local = _LOCAL.pack(_LOCAL_SIG, _ZIP_VERSION, 0, 0, *fields, 0) + filename
    central = _CENTRAL.pack(_CENTRAL_SIG, _ZIP_VERSION, _ZIP_VERSION, 0, 0, *fields,
                            0, 0, 0, 0, 0, offset) + filename
    return local, central


def _directory(central: list[bytes], start: int) -> bytes:
    """The central directory of ``central`` records, starting at ``start``,
    and the end record after it."""
    n, size = len(central), sum(map(len, central))
    return b"".join(central) + _END.pack(_END_SIG, 0, 0, n, n, size, start, 0)


def _write_zip(path, members) -> str:
    """Write ``(name, chunks)`` members as an uncompressed zip; returns the
    sha256 of the bytes written.

    Each member's size and CRC are known before its local header is written,
    so the file is written front to back and hashed on the way.
    """
    sha = hashlib.sha256()
    central = []
    offset = 0
    with open(path, "wb") as f:

        def put(view) -> None:
            nonlocal offset
            f.write(view)
            sha.update(view)
            offset += len(view)

        for name, chunks in members:
            views = [_raw(c) for c in chunks]
            crc, size = 0, 0
            for view in views:
                crc, size = zlib.crc32(view, crc), size + len(view)
            local, record = _headers(name, crc, size, offset)
            central.append(record)
            put(local)
            for view in views:
                put(view)
        put(_directory(central, offset))
    return sha.hexdigest()


def _raw(chunk) -> memoryview:
    """The bytes of ``bytes`` or of a C-contiguous array, without a copy."""
    if isinstance(chunk, np.ndarray):
        chunk = chunk.reshape(-1).view(np.uint8)
    return memoryview(chunk)


def load(path, data: bytes | None = None) -> QTable:
    """Read and validate a checkpoint written by ``save``.

    ``data``, when given, is the file's content, already read; ``path``
    then only names it in errors. Any unreadable, foreign, older- or
    newer-version or inconsistent file raises ``CheckpointError``. The table
    returned reads its values from ``data`` and holds on to it.
    """
    try:
        if data is None:
            with open(path, "rb") as f:
                data = f.read()
        occupied, codes, dictionary, sizes, meta = _read_members(path, data)
    except CheckpointError:
        raise
    except (OSError, EOFError, ValueError, struct.error) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    table = _table_from_meta(path, meta)
    if meta.item() != _meta_text(table):
        raise CheckpointError(f"checkpoint {path}: meta is not the text save writes")

    entries = table.grid.n_cells * N_ACTIONS
    shape = (table.columns, (entries + 7) // 8)
    _require_array(path, "occupied", occupied, np.uint8, shape)
    padding = -entries % 8
    if padding and (occupied[:, -1] & ((1 << padding) - 1)).any():
        raise CheckpointError(f"checkpoint {path}: occupied has a set padding bit")
    offsets = np.zeros(table.columns + 1, dtype=np.int64)
    np.cumsum(_POPCOUNT[occupied].sum(axis=1, dtype=np.int64), out=offsets[1:])
    n = int(offsets[-1])
    _require_array(path, "codes", codes, np.uint16, (n,), "one per set bit of occupied")
    runs = -(-n // RUN_LENGTH)
    _require_array(path, "sizes", sizes, np.uint16, (runs,), f"one per run of {RUN_LENGTH}")
    starts = np.zeros(runs + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=starts[1:])
    _require_array(path, "dictionary", dictionary, np.float64, (int(starts[-1]),),
                   "the sum of sizes")
    if not np.isfinite(dictionary).all():
        raise CheckpointError(f"non-finite value in checkpoint {path}")
    if not dictionary.view(np.uint64).all():
        raise CheckpointError(f"checkpoint {path} stores a +0.0, which save never writes")
    for run in range(runs):
        bits = dictionary[starts[run] : starts[run + 1]].view(np.uint64)
        if not (bits[1:] > bits[:-1]).all():
            raise CheckpointError(
                f"checkpoint {path}: the dictionary of run {run} is not strictly ascending"
            )
        run_codes = codes[run * RUN_LENGTH : (run + 1) * RUN_LENGTH]
        # a code past the size makes the count longer, an unused entry leaves a zero
        uses = np.bincount(run_codes, minlength=len(bits))
        if len(uses) != len(bits) or not uses.all():
            raise CheckpointError(
                f"checkpoint {path}: the codes of run {run} do not use exactly "
                f"its {len(bits)} dictionary entries"
            )
    table._stored = _Stored(occupied, offsets, codes, dictionary, starts, entries)
    return table


def _require_array(path, name: str, array: np.ndarray, dtype, shape, what: str = "") -> None:
    """Raise CheckpointError unless ``array`` is a ``dtype`` of ``shape``."""
    if array.dtype != dtype or array.shape != shape:
        raise CheckpointError(
            f"checkpoint {path}: {name} must be {np.dtype(dtype)} of shape {shape}"
            f"{', ' + what if what else ''}, got {array.dtype} {array.shape}"
        )


def _read_members(path, data: bytes) -> list[np.ndarray]:
    """The members of a checkpoint zip, in ``_MEMBERS`` order, as views of
    ``data``: every header must be the one ``save`` writes for them. A zip
    of other members whose meta is of another format version is refused
    for its version."""
    view = memoryview(data)
    names, arrays, central, at = [], [], [], 0
    while _LOCAL.unpack_from(data, at)[0] == _LOCAL_SIG:
        crc, size, _, name_length = _LOCAL.unpack_from(data, at)[6:10]
        start = at + _LOCAL.size
        name = bytes(view[start : start + name_length]).decode().removesuffix(".npy")
        local, record = _headers(name, crc, size, at)
        if view[at : at + len(local)] != local:
            raise CheckpointError(f"checkpoint {path}: {name}: not the local header save writes")
        at += len(local)
        member = view[at : at + size]
        if len(member) != size or zlib.crc32(member) != crc:
            raise CheckpointError(f"checkpoint {path}: {name}.npy fails its CRC check")
        names.append(name)
        arrays.append(_npy_view(path, name, member))
        central.append(record)
        at += size
    if names != list(_MEMBERS):
        if "meta" in names:
            _meta_doc(path, arrays[names.index("meta")])
        raise CheckpointError(
            f"checkpoint {path}: members {names}, not the local header names save "
            f"writes, {list(_MEMBERS)}"
        )
    if view[at:] != _directory(central, at):
        raise CheckpointError(f"checkpoint {path}: not the central directory save writes")
    return arrays


def _npy_view(path, name: str, member: memoryview) -> np.ndarray:
    """The array a ``.npy`` member holds, as a view of it; its header must be
    the one ``save`` writes for that dtype and shape."""
    # the header alone is copied to parse it, past the magic and version
    header = io.BytesIO(member[: 1 << 16])
    header.seek(len(np.lib.format.MAGIC_PREFIX) + 2)
    shape, _, dtype = np.lib.format.read_array_header_1_0(header)
    if member[: header.tell()] != _npy_header(dtype, shape):
        raise CheckpointError(f"checkpoint {path}: {name}.npy: not the .npy header save writes")
    count = math.prod(shape)
    if header.tell() + count * dtype.itemsize != len(member):
        raise CheckpointError(f"checkpoint {path}: {name}.npy does not hold a {shape} {dtype}")
    # np.frombuffer refuses an object dtype with a ValueError
    return np.frombuffer(member, dtype, count, header.tell()).reshape(shape)


def _meta_doc(path, meta: np.ndarray) -> dict:
    """The JSON object of a ``meta`` member of this format version."""
    if meta.dtype.kind != "U" or meta.ndim != 0:
        raise CheckpointError(f"checkpoint {path}: meta must be a 0-d unicode array")
    try:
        doc = json.loads(meta.item())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path}: corrupt meta: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path}: meta must be a JSON object")
    version = doc.get("format_version")
    if not is_int(version):
        raise CheckpointError(
            f"checkpoint {path}: format_version must be an int, got {version!r}"
        )
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"newest supported is {FORMAT_VERSION}"
        )
    if version < FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, which is no "
            f"longer read; retrain to write version {FORMAT_VERSION}"
        )
    return doc


def _table_from_meta(path, meta: np.ndarray) -> QTable:
    doc = _meta_doc(path, meta)
    try:
        grid = GridSpec(**doc["grid"])
        f_mhz = doc["f_mhz"]
        if f_mhz is not None and not (type(f_mhz) in (int, float) and 0 < f_mhz < math.inf):
            raise ValueError(f"f_mhz must be a positive number or null, got {f_mhz!r}")
        return QTable(grid, doc["columns"], f_mhz)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: malformed meta: {exc}") from exc
