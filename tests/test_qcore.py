import hashlib
import io
import json
import math
import random
import time
import zipfile

import numpy as np
import pytest

from uavnav import qcore
from uavnav.gridworld import ACTIONS, Action, GridSpec
from uavnav.qcore import (
    FORMAT_VERSION,
    MAX_TABLE_BYTES,
    RUN_LENGTH,
    CheckpointError,
    EpsilonSchedule,
    Hyper,
    QTable,
    load,
    save,
)

from reference import epsilon_at, greedy_action, q_update

GRID = GridSpec()


def make_table(kind="adaptive", columns=1, **kw):
    return QTable(kind=kind, grid=GRID, hyper=Hyper(), seed=0, columns=columns, **kw)


def st(cell):
    """The state of a cell in a one-column table on GRID."""
    return GRID.index(cell), 0


def row(t, s):
    return tuple(t.q[s].tolist())


def _stored(t):
    """The (cell, column) index of every stored row, in C order."""
    return [tuple(i) for i in np.argwhere(t.q.any(axis=-1)).tolist()]


def test_hyper_validation():
    Hyper(alpha=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        Hyper(alpha=0.0)
    with pytest.raises(ValueError):
        Hyper(alpha=1.5)
    with pytest.raises(ValueError):
        Hyper(gamma=1.0)


def test_q_update_worked_value():
    t = make_table()
    s, s2 = st((0, 0, 0)), st((1, 0, 0))
    # alpha=1, gamma=0 writes the reward verbatim: seed next-state max = 4
    q_update(t, s2, Action.PLUS_X, 4.0, st((2, 0, 0)), Hyper(alpha=1.0, gamma=0.0))
    q_update(t, s2, Action.PLUS_Y, 1.0, st((2, 0, 0)), Hyper(alpha=1.0, gamma=0.0))
    assert max(row(t, s2)) == 4.0
    v = q_update(t, s, Action.PLUS_X, 10.0, s2, Hyper(alpha=0.8, gamma=0.5))
    assert abs(v - 9.6) < 1e-12
    assert row(t, s)[Action.PLUS_X] == v


def test_q_update_fixed_point_zero():
    t = make_table()
    v = q_update(t, st((0, 0, 0)), Action.PLUS_X, 0.0, st((1, 0, 0)), Hyper())
    assert v == 0.0
    assert t.n_states() == 0  # nothing worth storing


def test_q_update_alpha1_gamma0_collapses_to_reward():
    t = make_table()
    s = st((4, 4, 0))
    q_update(t, s, Action.MINUS_Z, -3.0, st((4, 4, 1)), Hyper())
    v = q_update(t, s, Action.MINUS_Z, 7.0, st((4, 4, 1)), Hyper(alpha=1.0, gamma=0.0))
    assert v == 7.0


def test_q_update_locality():
    rng = random.Random(1)
    t = make_table()
    for _ in range(200):
        s = st((rng.randrange(20), rng.randrange(20), rng.randrange(5)))
        q_update(t, s, ACTIONS[rng.randrange(6)], rng.uniform(-5, 5), s, Hyper())
    before = {(s, a): v for s, a, v in t.entries()}
    target_s, target_a = st((1, 2, 3)), Action.PLUS_Y
    q_update(t, target_s, target_a, 2.5, st((9, 9, 4)), Hyper())
    after = {(s, a): v for s, a, v in t.entries()}
    for key, v in before.items():
        if key != (target_s, target_a):
            assert after[key] == v
    changed = set(after) - set(before) | {
        k for k in before if before[k] != after.get(k)
    }
    assert changed <= {(target_s, target_a)}


def test_q_update_contraction_to_target():
    t = make_table()
    s, s2 = st((0, 0, 0)), st((1, 1, 1))
    h = Hyper(alpha=0.8, gamma=0.5)
    q_update(t, s2, Action.PLUS_X, 4.0, st((2, 2, 2)), Hyper(alpha=1.0, gamma=0.0))
    r = 3.0
    target = r + h.gamma * max(row(t, s2))
    for _ in range(200):
        q_update(t, s, Action.MINUS_Y, r, s2, h)
    assert abs(row(t, s)[Action.MINUS_Y] - target) < 1e-6


def test_greedy_action_picks_the_maximizer():
    values = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    values[Action.PLUS_X] = 5.0
    rng = random.Random(0)
    for _ in range(100):
        assert greedy_action(values, ACTIONS, rng) == Action.PLUS_X
    # one maximizer: nothing drawn
    assert rng.getstate() == random.Random(0).getstate()


def test_greedy_action_uniform_tie_break():
    rng = random.Random(123)
    n = 60_000
    counts = {a: 0 for a in ACTIONS}
    for _ in range(n):
        counts[greedy_action([3.0] * 6, ACTIONS, rng)] += 1
    # binomial p=1/6: five sigma around the mean
    sigma = math.sqrt(n * (1 / 6) * (5 / 6))
    for c in counts.values():
        assert abs(c - n / 6) < 5 * sigma


def test_greedy_action_restricted_candidates():
    values = [9.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    rng = random.Random(0)
    candidates = (Action.PLUS_Y, Action.MINUS_Y)
    picked = {greedy_action(values, candidates, rng) for _ in range(50)}
    assert picked == set(candidates)


def test_argmax_shift_invariance():
    rng = random.Random(7)
    for _ in range(50):
        values = [rng.uniform(-10, 10) for _ in ACTIONS]
        shift = rng.uniform(-100, 100)
        r1 = greedy_action(values, ACTIONS, random.Random(99))
        r2 = greedy_action([v + shift for v in values], ACTIONS, random.Random(99))
        assert r1 == r2


def test_epsilon_schedule():
    sched = EpsilonSchedule(epsilon0=1.0, epsilon_min=0.05, decay=0.99)
    eps = sched.first(500)
    assert eps[0] == 1.0
    assert abs(eps[300] - 0.05) < 1e-12  # 0.99**300 ~ 0.049 < floor
    const = EpsilonSchedule(epsilon0=0.7, epsilon_min=0.0, decay=1.0)
    assert const.first(10_001)[-1] == 0.7
    assert (np.diff(eps) <= 0).all()
    with pytest.raises(ValueError):
        EpsilonSchedule(epsilon0=0.0)
    with pytest.raises(ValueError):
        EpsilonSchedule(epsilon_min=2.0)


# (schedule, episodes): no decay; a floor of 0.0, reached when the power
# underflows; a floor of -0.0, which max keeps over an underflowed 0.0; a
# floor first reached near episode 299,600; the two defaults.
FIRST_RATES = {
    "no_decay": (EpsilonSchedule(0.7, 0.05, 1.0), 1_000),
    "zero_floor": (EpsilonSchedule(1.0, 0.0, 1e-3), 1_000),
    "negative_zero_floor": (EpsilonSchedule(1.0, -0.0, 0.5), 2_000),
    "late_floor": (EpsilonSchedule(1.0, 0.05, 0.99999), 300_000),
    "planner_default": (EpsilonSchedule(), 20_000),
    "coverage_default": (EpsilonSchedule(1.0, 0.5, 0.995), 20_000),
}


@pytest.mark.parametrize("case", sorted(FIRST_RATES))
def test_epsilon_schedule_first_is_at_bit_for_bit(case):
    sched, n = FIRST_RATES[case]
    got = sched.first(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    want = np.array([epsilon_at(sched, e) for e in range(n)], dtype=np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert sched.first(0).shape == (0,)


def _random_table(rng, kind="strategic", n_states=60, grid=GRID):
    """A planner with one column per destination, or a one-column coverage table."""
    t = QTable(kind, grid, Hyper(), 0, columns=grid.n_cells if kind == "strategic" else 1)

    def cell():
        return grid.index((rng.randrange(grid.nx), rng.randrange(grid.ny), rng.randrange(grid.nz)))

    for _ in range(n_states):
        s = (cell(), cell()) if kind == "strategic" else (cell(), 0)
        t.q[s] = [rng.uniform(-100, 100) for _ in ACTIONS]
    return t


def test_save_load_round_trip(tmp_path):
    rng = random.Random(11)
    for kind in ("strategic", "adaptive"):
        t = _random_table(rng, kind=kind)
        path = tmp_path / f"{kind}.npz"
        save(t, path)
        back = load(path)
        assert back == t
        assert back.kind == t.kind
        assert back.grid == t.grid
        assert back.hyper == t.hyper
        assert back.columns == t.columns


def test_save_load_thousand_entries(tmp_path):
    rng = random.Random(3)
    t = _random_table(rng, kind="adaptive", n_states=200)
    n_entries = sum(1 for _ in t.entries())
    assert n_entries >= 1000
    save(t, tmp_path / "t.npz")
    back = load(tmp_path / "t.npz")
    assert dict(((s, a), v) for s, a, v in back.entries()) == dict(
        ((s, a), v) for s, a, v in t.entries()
    )


def test_empty_table_round_trip(tmp_path):
    for kind in ("strategic", "adaptive"):
        columns = GRID.n_cells if kind == "strategic" else 1
        t = make_table(kind=kind, columns=columns, f_mhz=1800.0)
        save(t, tmp_path / "empty.npz")
        back = load(tmp_path / "empty.npz")
        assert back.n_states() == 0
        assert back.f_mhz == 1800.0
        assert back.columns == columns
        assert back == t


def test_all_zero_rows_round_trip(tmp_path):
    # A zero entry is not stored: an all-zero row reads as absent.
    for kind in ("strategic", "adaptive"):
        t = _random_table(random.Random(5), kind=kind, n_states=10)
        n = t.n_states()
        zero = _stored(t)[0]
        t.q[zero] = 0.0
        t.q[_stored(t)[0] + (2,)] = 0.0
        assert t.n_states() == n - 1
        assert zero not in _stored(t)
        save(t, tmp_path / "z.npz")
        with np.load(tmp_path / "z.npz") as npz:
            assert npz["codes"].shape == (6 * (n - 1) - 1,)
            assert np.unpackbits(npz["occupied"]).sum() == 6 * (n - 1) - 1
        back = load(tmp_path / "z.npz")
        assert _stored(back) == _stored(t)
        assert row(back, zero) == (0.0,) * 6
        assert back == t


def test_negative_zero_round_trips_bit_for_bit(tmp_path):
    # -0.0 has a set sign bit, so it is stored, alone in a row or beside
    # non-zero values; a format that stored rows read the first back as +0.0.
    for kind in ("strategic", "adaptive"):
        t = _random_table(random.Random(8), kind=kind, n_states=5)
        alone, beside = _stored(t)[0], _stored(t)[1]
        t.q[alone] = 0.0
        t.q[alone + (3,)] = -0.0
        t.q[beside + (4,)] = -0.0
        save(t, tmp_path / "neg.npz")
        back = load(tmp_path / "neg.npz")
        assert back.q.tobytes() == t.q.tobytes()
        assert math.copysign(1.0, back.q[alone + (3,)]) == -1.0
        assert math.copysign(1.0, back.q[beside + (4,)]) == -1.0


def _assert_round_trips(t, path, runs):
    """``load(save(t))`` is ``t`` bit for bit, read by column as well as
    dense, from ``runs`` runs."""
    save(t, path)
    with np.load(path) as npz:
        assert len(npz["sizes"]) == runs
    back = load(path)
    for col in range(t.columns):
        assert back.column_values(col).tobytes() == t.q[:, col].tobytes()
    assert back.n_states() == t.n_states()
    assert back._q is None
    assert back == t and back.q.tobytes() == t.q.tobytes()


@pytest.mark.parametrize("n", [RUN_LENGTH - 1, RUN_LENGTH, RUN_LENGTH + 1])
def test_round_trip_at_a_run_boundary(tmp_path, n):
    # n stored entries, drawn from 100 values: one run, one full run, and a
    # full run then a run of one entry
    rng = np.random.default_rng(n)
    t = _long_table(rng.choice(rng.uniform(-9, 9, 100), n))
    _assert_round_trips(t, tmp_path / "t.npz", -(-n // RUN_LENGTH))


def test_round_trip_of_a_run_of_distinct_values(tmp_path):
    # the largest dictionary a run can have: RUN_LENGTH entries, codes up to
    # RUN_LENGTH - 1
    values = np.random.default_rng(1).permutation(np.linspace(1, 2, RUN_LENGTH))
    t = _long_table(values)
    _assert_round_trips(t, tmp_path / "t.npz", 1)
    with np.load(tmp_path / "t.npz") as npz:
        assert npz["sizes"].tolist() == [RUN_LENGTH]
        assert npz["codes"].max() == RUN_LENGTH - 1


def test_round_trip_past_65536_dictionary_entries(tmp_path):
    # Three runs with 32,768, 32,000 and 32,768 distinct values: the third
    # run's dictionary starts at 64,768, so its entries lie on both sides of
    # 65,536, where a uint16 position would wrap.
    grid = GridSpec(nx=128, ny=128, nz=1)
    t = QTable("adaptive", grid, Hyper(), 0)
    values = np.random.default_rng(5).permutation(np.linspace(1, 2, 3 * RUN_LENGTH))
    values[RUN_LENGTH + 32_000 : 2 * RUN_LENGTH] = values[RUN_LENGTH : RUN_LENGTH + 768]
    t.q.reshape(-1)[:] = values
    _assert_round_trips(t, tmp_path / "t.npz", 3)
    with np.load(tmp_path / "t.npz") as npz:
        assert npz["sizes"].tolist() == [RUN_LENGTH, 32_000, RUN_LENGTH]
        assert npz["codes"][2 * RUN_LENGTH :].max() == RUN_LENGTH - 1


def test_round_trip_of_negative_zero_beside_both_signs(tmp_path):
    # -0.0 sorts after every positive value and before every other negative
    # one as uint64: its own dictionary entry, decoded with its sign
    tiny = 5e-324
    values = np.array([-0.0, 1.5, -1.5, tiny, -tiny, -0.0, 2.0, -2.0, 1.5, -0.0] * 3_840)
    t = _long_table(values)
    _assert_round_trips(t, tmp_path / "t.npz", 2)
    with np.load(tmp_path / "t.npz") as npz:
        assert npz["sizes"].tolist() == [7, 7]
        assert _bits(-0.0) in npz["dictionary"].view(np.uint64)


def test_round_trip_of_one_column_over_two_runs(tmp_path):
    # every entry of a one-column table stored: its column spans both runs
    t = _long_table(np.random.default_rng(2).uniform(-100, 100, LONG_GRID.n_cells * 6))
    _assert_round_trips(t, tmp_path / "t.npz", 2)


def test_round_trip_of_a_planner_column_across_a_run_boundary(tmp_path):
    # 100 columns of 600 entries, all stored: column 54 holds entries
    # 32,400 to 32,999, so it starts in the first run and ends in the second.
    # Column c draws from 500 values plus c, so no two runs share a value.
    grid = GridSpec(nx=10, ny=10, nz=1)
    t = QTable("strategic", grid, Hyper(), 0, columns=grid.n_cells)
    rng = np.random.default_rng(4)
    t.q[:] = rng.choice(rng.uniform(0.5, 0.9, 500), t.q.shape) + np.arange(100)[:, None]
    assert 54 * 600 < RUN_LENGTH < 55 * 600
    _assert_round_trips(t, tmp_path / "t.npz", 2)


def test_save_bytes_stable_across_clock_and_insertion_order(tmp_path, monkeypatch):
    t = _random_table(random.Random(9), kind="strategic", n_states=80)
    save(t, tmp_path / "a.npz")
    shuffled = make_table(kind="strategic", columns=GRID.n_cells)
    items = _stored(t)
    random.Random(1).shuffle(items)
    for s in items:
        shuffled.q[s] = t.q[s]
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    save(shuffled, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    assert zipfile.is_zipfile(tmp_path / "a.npz")


def _members(table, path):
    """The members that ``save`` writes for ``table``, by name, in file
    order, with the meta as a dict."""
    save(table, path)
    with np.load(path, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    members["meta"] = json.loads(members["meta"].item())
    return members


def _write_zip(path, members):
    """A checkpoint built by hand, so any member can be malformed: each
    member is ``np.save``'s bytes, in the zip layout ``save`` writes, so a
    malformed member reaches the checks of its contents."""
    chunks = []
    for name, array in members.items():
        if isinstance(array, dict):
            array = np.array(json.dumps(array))
        npy = io.BytesIO()
        np.lib.format.write_array(npy, np.asarray(array), allow_pickle=True)
        chunks.append((name, [npy.getvalue()]))
    qcore._write_zip(path, chunks)


# 27 cells: each column's 162 entries leave 6 padding bits in the last byte
# of its row of occupied
ODD_GRID = GridSpec(nx=3, ny=3, nz=3)


def test_hand_built_checkpoint_loads(tmp_path):
    # the corruption tests below start from this valid baseline
    t = _random_table(random.Random(2), kind="strategic", n_states=5, grid=ODD_GRID)
    members = _members(t, tmp_path / "t.npz")
    assert list(members) == ["occupied", "codes", "dictionary", "sizes", "meta"]
    occupied = members["occupied"]
    assert occupied.shape == (27, 21) and not (occupied[:, -1] & 0x3F).any()
    _write_zip(tmp_path / "copy.npz", members)
    assert load(tmp_path / "copy.npz") == t


def _with_meta(members, **meta):
    return {**members, "meta": {**members["meta"], **meta}}


def test_load_rejects_newer_version(tmp_path):
    members = _members(make_table(), tmp_path / "t.npz")
    _write_zip(tmp_path / "t.npz", _with_meta(members, format_version=FORMAT_VERSION + 1))
    with pytest.raises(CheckpointError, match="newest supported"):
        load(tmp_path / "t.npz")


@pytest.mark.parametrize("version", ["1", 2.0, True, None, 1, 2, 3, 4, 5, FORMAT_VERSION - 1])
def test_load_rejects_non_int_or_old_version(tmp_path, version):
    members = _members(make_table(), tmp_path / "t.npz")
    _write_zip(tmp_path / "t.npz", _with_meta(members, format_version=version))
    with pytest.raises(CheckpointError):
        load(tmp_path / "t.npz")


def test_load_rejects_v2_checkpoint(tmp_path):
    # format v2 stored int32 coordinate keys in place of the occupancy bitmap
    t = _random_table(random.Random(2), kind="adaptive", n_states=5)
    meta = _members(t, tmp_path / "t.npz")["meta"]
    cells = [c for c, _ in _stored(t)]
    keys = np.column_stack(np.unravel_index(cells, (GRID.nx, GRID.ny, GRID.nz))).astype(np.int32)
    values = t.q[cells, 0]
    _write_zip(tmp_path / "v2.npz",
               {"keys": keys, "values": values, "meta": {**meta, "format_version": 2}})
    with pytest.raises(CheckpointError):
        load(tmp_path / "v2.npz")


def test_load_refuses_v3_checkpoint_with_retrain(tmp_path):
    # format v3 recorded goal_conditioned in the meta in place of columns
    t = _random_table(random.Random(2), kind="strategic", n_states=5, grid=ODD_GRID)
    members = _members(t, tmp_path / "t.npz")
    meta = {k: v for k, v in members["meta"].items() if k != "columns"}
    meta.update(format_version=3, goal_conditioned=True)
    _write_zip(tmp_path / "v3.npz", {**members, "meta": meta})
    with pytest.raises(CheckpointError, match="retrain"):
        load(tmp_path / "v3.npz")


def test_load_refuses_v4_checkpoint_with_retrain(tmp_path):
    # format v4 stored whole rows: a bit per row of q.reshape(-1, 6), and n x 6 values
    t = _random_table(random.Random(2), kind="strategic", n_states=5, grid=ODD_GRID)
    meta = _members(t, tmp_path / "t.npz")["meta"]
    rows = t.q.reshape(-1, 6)
    stored = rows.any(axis=1)
    _write_zip(tmp_path / "v4.npz", {"occupied": np.packbits(stored), "values": rows[stored],
                                     "meta": {**meta, "format_version": 4}})
    with pytest.raises(CheckpointError, match="retrain"):
        load(tmp_path / "v4.npz")


def test_load_refuses_v5_checkpoint_with_retrain(tmp_path):
    # format v5 stored entries in (cell, column, a) order, under one bitmap
    t = _random_table(random.Random(2), kind="strategic", n_states=5, grid=ODD_GRID)
    meta = _members(t, tmp_path / "t.npz")["meta"]
    flat = t.q.reshape(-1)
    stored = flat.view(np.uint64) != 0
    _write_zip(tmp_path / "v5.npz", {"occupied": np.packbits(stored), "values": flat[stored],
                                     "meta": {**meta, "format_version": 5}})
    with pytest.raises(CheckpointError, match="retrain"):
        load(tmp_path / "v5.npz")


def test_load_refuses_v6_checkpoint_with_retrain(tmp_path):
    # format v6 stored the float64 values themselves, in (column, cell, a)
    # order, under v7's occupancy bitmap
    t = _random_table(random.Random(2), kind="strategic", n_states=5, grid=ODD_GRID)
    members = _members(t, tmp_path / "t.npz")
    by_column = t.q.transpose(1, 0, 2).reshape(t.columns, -1)
    stored = by_column.view(np.uint64) != 0
    occupied = np.packbits(stored, axis=1)
    assert np.array_equal(occupied, members["occupied"])
    _write_zip(tmp_path / "v6.npz", {"occupied": occupied, "values": by_column[stored],
                                     "meta": {**members["meta"], "format_version": 6}})
    with pytest.raises(CheckpointError, match="retrain"):
        load(tmp_path / "v6.npz")


@pytest.mark.parametrize("columns", [0, 2, 28, True, 1.0, "1"])
def test_qtable_columns_are_one_or_one_per_cell(columns):
    for valid in (1, ODD_GRID.n_cells):
        assert QTable("strategic", ODD_GRID, Hyper(), 0, columns=valid).q.shape == (27, valid, 6)
    with pytest.raises(ValueError, match="columns"):
        QTable("strategic", ODD_GRID, Hyper(), 0, columns=columns)


def test_column_of_a_destination():
    many = QTable("strategic", ODD_GRID, Hyper(), 0, columns=ODD_GRID.n_cells)
    one = QTable("adaptive", ODD_GRID, Hyper(), 0)
    assert (many.column(5), one.column(5)) == (5, 0)
    dests = np.array([3, 26, 0])
    np.testing.assert_array_equal(many.column(dests), dests)
    many.q[1, dests, 2] = [1.0, 2.0, 3.0]
    np.testing.assert_array_equal(many.q[1, many.column(dests), 2], [1.0, 2.0, 3.0])
    one.q[dests, 0, 4] = [4.0, 5.0, 6.0]
    np.testing.assert_array_equal(one.q[dests, one.column(dests), 4], [4.0, 5.0, 6.0])


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def _flip_bit(occupied, bit):
    """``occupied`` with one bit flipped, counting through its rows in order."""
    out = occupied.copy()
    out.reshape(-1)[bit // 8] ^= 0x80 >> bit % 8
    return out


def _flip_first(occupied, value):
    """``occupied`` with its first bit of ``value`` flipped."""
    return _flip_bit(occupied, int(np.flatnonzero(np.unpackbits(occupied) == value)[0]))


def _meta_edit(edit):
    """A corruption that replaces the meta with ``edit(meta)``."""
    return lambda m: {"meta": edit(m["meta"])}


# Each maps the members that ``save`` wrote to the members it replaces; the
# occupied_*_row cases set or clear the bit of one entry, and the values_*
# and value_* cases break the codes and the dictionary that hold the values.
_CORRUPTIONS = {
    "occupied_int8": lambda m: {"occupied": m["occupied"].view(np.int8)},
    "occupied_short": lambda m: {"occupied": m["occupied"][:-1]},
    "occupied_long": lambda m: {"occupied": np.append(m["occupied"], m["occupied"][:1])},
    "occupied_2d": lambda m: {"occupied": m["occupied"][None, :]},
    "occupied_padding_bit": lambda m: {"occupied": _set(m["occupied"], -1, m["occupied"][-1] | 1)},
    "occupied_extra_row": lambda m: {"occupied": _flip_first(m["occupied"], 0)},
    "occupied_missing_row": lambda m: {"occupied": _flip_first(m["occupied"], 1)},
    "values_float32": lambda m: {"dictionary": m["dictionary"].astype(np.float32)},
    "values_short_row": lambda m: {"codes": m["codes"][:-1]},
    "values_one_long": lambda m: {"codes": np.append(m["codes"], m["codes"][:1])},
    "values_missing_row": lambda m: {"codes": m["codes"][6:]},
    "values_2d": lambda m: {"codes": m["codes"].reshape(-1, 6)},
    "value_nan": lambda m: {"dictionary": _set(m["dictionary"], 0, math.nan)},
    "value_inf": lambda m: {"dictionary": _set(m["dictionary"], 8, -math.inf)},
    "value_plus_zero": lambda m: {"dictionary": _set(m["dictionary"], 3, 0.0)},
    "object_values": lambda m: {"dictionary": m["dictionary"].astype(object)},
    "meta_columns_missing": _meta_edit(lambda m: {x: m[x] for x in m if x != "columns"}),
    "meta_columns_0": _meta_edit(lambda m: {**m, "columns": 0}),
    "meta_columns_2": _meta_edit(lambda m: {**m, "columns": 2}),
    "meta_columns_n_cells_plus_1": _meta_edit(lambda m: {**m, "columns": 28}),
    "meta_columns_true": _meta_edit(lambda m: {**m, "columns": True}),
    "meta_columns_float": _meta_edit(lambda m: {**m, "columns": 1.0}),
    "meta_columns_text": _meta_edit(lambda m: {**m, "columns": "1"}),
    "meta_not_object": _meta_edit(lambda m: np.array("[1, 2]")),
    "meta_not_unicode": _meta_edit(lambda m: np.array(b"{}")),
    "meta_bad_grid": _meta_edit(lambda m: {**m, "grid": {**m["grid"], "nx": 0}}),
    "meta_bad_hyper": _meta_edit(lambda m: {**m, "hyper": {"alpha": 2.0, "gamma": 0.5}}),
    "meta_bad_kind": _meta_edit(lambda m: {**m, "kind": "tactical"}),
    "meta_no_seed": _meta_edit(lambda m: {x: m[x] for x in m if x != "seed"}),
    "meta_float_grid": _meta_edit(lambda m: {**m, "grid": {**m["grid"], "nx": 3.0}}),
    "meta_text_band": _meta_edit(lambda m: {**m, "f_mhz": "900"}),
    # a key of format v3, and the hyper keys out of save's sorted order
    "meta_extra_key": _meta_edit(lambda m: {**m, "goal_conditioned": True}),
    "meta_reordered": _meta_edit(lambda m: {**m, "hyper": dict(reversed(m["hyper"].items()))}),
}


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_load_rejects_malformed_members(tmp_path, name):
    t = _random_table(random.Random(4), kind="strategic", n_states=6, grid=ODD_GRID)
    members = _members(t, tmp_path / "t.npz")
    _write_zip(tmp_path / "t.npz", {**members, **_CORRUPTIONS[name](members)})
    with pytest.raises(CheckpointError):
        load(tmp_path / "t.npz")


def _bits(x):
    return np.array(x, dtype=np.float64).view(np.uint64)


def _recode(run, edit):
    """A corruption of one run: ``edit(codes, bits)`` gives the run's new
    codes and dictionary, as uint64 bits, and ``sizes`` follows them, so
    the members stay consistent in every other way. ``run`` -1 is the last."""

    def corrupt(m):
        starts = np.concatenate(([0], np.cumsum(m["sizes"], dtype=np.int64)))
        codes = [m["codes"][at : at + RUN_LENGTH] for at in range(0, len(m["codes"]), RUN_LENGTH)]
        bits = [m["dictionary"][a:b].view(np.uint64) for a, b in zip(starts[:-1], starts[1:])]
        codes[run], bits[run] = edit(codes[run].copy(), bits[run].copy())
        return {
            "codes": np.concatenate(codes).astype(np.uint16),
            "dictionary": np.concatenate(bits).view(np.float64),
            "sizes": np.array([len(b) for b in bits], dtype=np.uint16),
        }

    return corrupt


def _duplicate_first(codes, bits):
    # entry 0 twice, and one of its uses moved to the copy
    codes += codes > 0
    codes[np.flatnonzero(codes == 0)[-1]] = 1
    return codes, np.insert(bits, 1, bits[0])


def _swap_first_two(codes, bits):
    # the same values, from a dictionary out of order
    return np.choose(np.minimum(codes, 2), [1, 0, codes]), bits[[1, 0, *range(2, len(bits))]]


def _used_plus_zero(codes, bits):
    # +0.0 first in the dictionary, as its bits sort, and one code using it
    codes += 1
    codes[0] = 0
    return codes, np.insert(bits, 0, 0)


def _sizes_edit(edit):
    return lambda m: {"sizes": edit(m["sizes"].copy())}


def _add(array, index, value):
    array[index] = int(array[index]) + value
    return array


# The dictionary coding's own checks, each with what load's refusal names.
# Each case breaks the first or the last run; on a table of two runs of
# different sizes a code valid in the first run is at the last run's size.
_UNUSED, _ORDER = "do not use exactly", "not strictly ascending"
_CODING_CORRUPTIONS = {
    "code_at_size": (_recode(-1, lambda c, b: (_set(c, -1, len(b)), b)), _UNUSED),
    "code_past_size": (_recode(0, lambda c, b: (_set(c, 0, 0xFFFF), b)), _UNUSED),
    "dictionary_unused_entry": (
        _recode(-1, lambda c, b: (c, np.append(b, b[-1] + np.uint64(1)))), _UNUSED),
    "dictionary_duplicate": (_recode(-1, _duplicate_first), _ORDER),
    "dictionary_out_of_order": (_recode(0, _swap_first_two), _ORDER),
    "dictionary_plus_zero": (_recode(0, _used_plus_zero), r"\+0\.0"),
    "dictionary_nan": (_recode(-1, lambda c, b: (c, _set(b, -1, _bits(math.nan)))), "non-finite"),
    "dictionary_inf": (_recode(0, lambda c, b: (c, _set(b, -1, _bits(-math.inf)))), "non-finite"),
    "sizes_sum_long": (_sizes_edit(lambda s: _add(s, -1, 1)), "sum of sizes"),
    "sizes_sum_short": (_sizes_edit(lambda s: _add(s, -1, -1)), "sum of sizes"),
    # the sum holds, but the first run takes the last run's first entry
    "sizes_shifted": (_sizes_edit(lambda s: _add(_add(s, 0, 1), -1, -1)), f"{_UNUSED}|{_ORDER}"),
    "sizes_extra_run": (_sizes_edit(lambda s: np.append(s, s[:1])), "one per run"),
    "sizes_missing_run": (_sizes_edit(lambda s: s[:-1]), "one per run"),
    "codes_int16": (lambda m: {"codes": m["codes"].astype(np.int16)}, "codes must be uint16"),
    "codes_uint32": (lambda m: {"codes": m["codes"].astype(np.uint32)}, "codes must be uint16"),
    "dictionary_float32": (lambda m: {"dictionary": m["dictionary"].astype(np.float32)},
                           "dictionary must be float64"),
    "dictionary_as_uint64": (lambda m: {"dictionary": m["dictionary"].view(np.uint64)},
                             "dictionary must be float64"),
    "sizes_int16": (lambda m: {"sizes": m["sizes"].astype(np.int16)}, "sizes must be uint16"),
    "sizes_uint32": (lambda m: {"sizes": m["sizes"].astype(np.uint32)}, "sizes must be uint16"),
    "sizes_float64": (lambda m: {"sizes": m["sizes"].astype(np.float64)}, "sizes must be uint16"),
}

# 6,400 cells: a one-column table of 38,400 entries, more than one run
LONG_GRID = GridSpec(nx=80, ny=80, nz=1)


def _long_table(values):
    """A one-column table on LONG_GRID whose first entries are ``values``."""
    t = QTable("adaptive", LONG_GRID, Hyper(), 0)
    t.q.reshape(-1)[: len(values)] = values
    return t


def _two_run_table():
    # the first run draws from 40 values and the second from 10
    rng = np.random.default_rng(3)
    levels = rng.uniform(-50, 50, 40)
    return _long_table(np.concatenate((rng.choice(levels, RUN_LENGTH),
                                       rng.choice(levels[:10], 38_400 - RUN_LENGTH))))


@pytest.mark.parametrize("name", sorted(_CODING_CORRUPTIONS))
def test_load_rejects_malformed_coding(tmp_path, name):
    members = _members(_two_run_table(), tmp_path / "t.npz")
    assert members["sizes"].tolist() == [40, 10]
    corrupt, refusal = _CODING_CORRUPTIONS[name]
    _write_zip(tmp_path / "t.npz", {**members, **corrupt(members)})
    with pytest.raises(CheckpointError, match=refusal):
        load(tmp_path / "t.npz")


def test_coding_corruptions_keep_the_values(tmp_path):
    # The cases that re-code a run decode to the values saved: load refuses
    # them for their coding alone.
    members = _members(_two_run_table(), tmp_path / "t.npz")
    want = load(tmp_path / "t.npz").q
    for name in ("dictionary_duplicate", "dictionary_out_of_order"):
        m = _CODING_CORRUPTIONS[name][0](members)
        starts = np.cumsum(m["sizes"], dtype=np.int64) - m["sizes"]
        run = np.arange(len(m["codes"])) // RUN_LENGTH
        got = m["dictionary"][starts[run] + m["codes"]]
        assert got.tobytes() == want.reshape(-1).tobytes(), name


def test_cli_refuses_malformed_coding_with_exit_3(tmp_path, capsys):
    from uavnav.cli import main as cli_main
    from uavnav.config import TrainConfig
    from uavnav.harness import cmd_train

    cfg = TrainConfig(grid=GridSpec(nx=10, ny=10, nz=2), bands_mhz=(900.0,),
                      episodes_strategic=2000, episodes_adaptive=20)
    out = cmd_train(cfg, tmp_path / "run")
    path = out / "strategic.npz"
    members = _members(load(path), tmp_path / "t.npz")
    assert len(members["sizes"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    for name, (corrupt, _) in sorted(_CODING_CORRUPTIONS.items()):
        _write_zip(path, {**members, **corrupt(members)})
        manifest["files"]["strategic.npz"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3, name
        err = capsys.readouterr().err
        assert "artifact error:" in err and "strategic.npz" in err, name
        assert "Traceback" not in err, name
        assert not (out / "flights.csv").exists()


def test_load_refuses_table_over_the_size_limit(tmp_path):
    # an empty table on a 6,689-cell grid would take over 2 GiB when dense
    members = _members(make_table("strategic", columns=GRID.n_cells), tmp_path / "t.npz")
    meta = {**members["meta"], "grid": {**members["meta"]["grid"], "nx": 6689, "ny": 1, "nz": 1},
            "columns": 6689}
    _write_zip(tmp_path / "t.npz", {**members, "meta": meta})
    with pytest.raises(CheckpointError, match="GiB"):
        load(tmp_path / "t.npz")


def test_load_rejects_wrong_member_set(tmp_path):
    t = _random_table(random.Random(4), kind="adaptive", n_states=6)
    members = _members(t, tmp_path / "t.npz")
    del members["meta"]
    np.savez(tmp_path / "four.npz", **members)
    with pytest.raises(CheckpointError):
        load(tmp_path / "four.npz")
    np.save(tmp_path / "bare.npy", members["dictionary"])
    with pytest.raises(CheckpointError):
        load(tmp_path / "bare.npy")


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_text("{ not json")
    with pytest.raises(CheckpointError):
        load(path)
    path.write_text('{"format_version": 1}')
    with pytest.raises(CheckpointError):
        load(path)
    path.write_bytes(b"")
    with pytest.raises(CheckpointError):
        load(path)
    save(_random_table(random.Random(6), kind="adaptive"), path)
    path.write_bytes(path.read_bytes()[:-40])  # truncated
    with pytest.raises(CheckpointError):
        load(path)


def _mutants(data, rng, n):
    """``n`` seeded mutants of ``data``, each one byte set, one truncation,
    one inserted byte or one flipped bit."""
    for _ in range(n):
        b = bytearray(data)
        at, op = rng.randrange(len(b)), rng.randrange(4)
        if op == 0:
            b[at] = rng.randrange(256)
        elif op == 1:
            del b[at:]
        elif op == 2:
            b.insert(at, rng.randrange(256))
        else:
            b[at] ^= 1 << rng.randrange(8)
        yield bytes(b)


def test_load_accepts_only_the_bytes_save_writes(tmp_path):
    # A mutant is refused, or it is read as a table that saves to the same
    # bytes: load reads no file that save would not write.
    rng = random.Random(0)
    for kind in ("strategic", "adaptive"):
        t = _random_table(random.Random(4), kind=kind, n_states=6, grid=ODD_GRID)
        save(t, tmp_path / "t.npz")
        data = (tmp_path / "t.npz").read_bytes()
        refused = 0
        for b in _mutants(data, rng, 3000):
            try:
                back = load("mutant.npz", b)
            except CheckpointError:
                refused += 1
                continue
            save(back, tmp_path / "back.npz")
            assert (tmp_path / "back.npz").read_bytes() == b
        assert refused > 2900


def test_lookup_default_zero():
    t = make_table()
    assert row(t, st((9, 9, 4))) == (0.0,) * 6


# The console-script check's tiny config (4 x 4 x 2, two bands): the sha256
# of every checkpoint file it trains, bytes and not contents, so a change of
# zip headers between Python versions shows here. Recorded with format v7.
TINY_CHECKPOINTS = {
    "adaptive_1800.npz": "8f713921e0476049f4a266ae355ad6d11e1525565eb2b9278f2c791496ecf77f",
    "adaptive_900.npz": "245c1985b0cec7151db2470456b186a1aa26b7c03b9eecac0c4e7b1d06f74249",
    "strategic.npz": "3049c8490eaebdd018e886c42043b4a440d9a9ac06b0138149acb734694bc95d",
}


def test_tiny_config_checkpoint_bytes(tmp_path):
    from uavnav.config import TrainConfig
    from uavnav.harness import cmd_train

    cfg = TrainConfig(
        grid=GridSpec(nx=4, ny=4, nz=2),
        bands_mhz=(900.0, 1800.0),
        episodes_strategic=200,
        episodes_adaptive=100,
    )
    out = cmd_train(cfg, tmp_path / "run")
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.npz"))
    }
    assert got == TINY_CHECKPOINTS


def _npy_header_bytes(raw):
    """The length of a version 1.0 ``.npy`` header: magic, version, length, text."""
    assert raw[:8] == b"\x93NUMPY\x01\x00"
    return 10 + int.from_bytes(raw[8:10], "little")


def _dictionary_entries(q):
    """The number of distinct bit patterns in each run of ``RUN_LENGTH`` of
    q's non-zero entries, taken in (column, cell, a) order."""
    bits = q.transpose(1, 0, 2).reshape(-1).view(np.uint64)
    bits = bits[bits != 0]
    return [len(np.unique(bits[at : at + RUN_LENGTH])) for at in range(0, len(bits), RUN_LENGTH)]


def test_checkpoint_holds_nothing_but_non_zero_entries(tmp_path):
    # A trained checkpoint's size is its headers, one bit per entry, a
    # two-byte code per non-zero entry, eight bytes per distinct value of
    # each run and a two-byte size per run: a zero written back into it, or
    # a value in a run's dictionary twice, fails here.
    from uavnav.config import TrainConfig
    from uavnav.harness import cmd_train

    cfg = TrainConfig(grid=GridSpec(nx=4, ny=4, nz=2), bands_mhz=(900.0,),
                      episodes_strategic=100, episodes_adaptive=50)
    out = cmd_train(cfg, tmp_path / "run")
    for name in ("strategic.npz", "adaptive_900.npz"):
        path = out / name
        q = load(path).q
        non_zero = int(np.count_nonzero(q.view(np.uint64)))
        assert 0 < non_zero < q.size
        sizes = _dictionary_entries(q)
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
            members = {i.filename: zf.read(i) for i in infos}
        assert all(i.compress_type == zipfile.ZIP_STORED and not i.extra for i in infos)
        # a local header and a central directory entry per member, then the end record
        zip_headers = sum(30 + 46 + 2 * len(i.filename) for i in infos) + 22
        headers = zip_headers + sum(map(_npy_header_bytes, members.values()))
        meta = len(members["meta.npy"]) - _npy_header_bytes(members["meta.npy"])
        cells, columns, _ = q.shape
        expected = (headers + meta + columns * ((cells * 6 + 7) // 8)
                    + 2 * non_zero + 8 * sum(sizes) + 2 * len(sizes))
        assert path.stat().st_size == expected


def _local_extras(path):
    """Each member's size and the length of its local header's extra field,
    which holds the zip64 sizes of a member written as zip64."""
    data = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        return {
            i.filename: (i.file_size, int.from_bytes(data[at + 28 : at + 30], "little"))
            for i in zf.infolist()
            for at in [i.header_offset]
        }


def test_no_member_is_zip64(tmp_path, monkeypatch):
    # Python versions write different zip64 headers. save writes none: the
    # members of the largest table it accepts fit the zip's 32-bit sizes and
    # offsets, whatever zipfile's own limit.
    assert MAX_TABLE_BYTES + MAX_TABLE_BYTES // 64 + (1 << 16) < 0xFFFFFFFF
    t = _random_table(random.Random(3), kind="strategic", n_states=40)
    save(t, tmp_path / "small.npz")
    assert all(extra == 0 for _, extra in _local_extras(tmp_path / "small.npz").values())
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
    save(t, tmp_path / "big.npz")
    monkeypatch.undo()
    assert (tmp_path / "big.npz").read_bytes() == (tmp_path / "small.npz").read_bytes()
    assert load(tmp_path / "big.npz") == t


def test_save_returns_the_sha256_of_the_file(tmp_path):
    for kind in ("strategic", "adaptive"):
        path = tmp_path / f"{kind}.npz"
        sha = save(_random_table(random.Random(12), kind=kind), path)
        assert sha == hashlib.sha256(path.read_bytes()).hexdigest()


def test_column_reads_equal_the_trained_columns_bit_for_bit(tmp_path):
    from uavnav.agents import train_strategic
    from uavnav.config import TrainConfig, stream_rng
    from uavnav.harness import build_world

    # ODD_GRID's rows of occupied end in padding bits
    cfg = TrainConfig(grid=ODD_GRID, bands_mhz=(900.0,), episodes_strategic=300,
                      episodes_adaptive=10)
    t, _ = train_strategic(build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic"))
    alone, beside = _stored(t)[0], _stored(t)[-1]
    t.q[alone] = 0.0
    t.q[alone + (3,)] = -0.0
    t.q[beside + (4,)] = -0.0
    save(t, tmp_path / "t.npz")
    back = load(tmp_path / "t.npz")
    for col in range(t.columns):
        assert back.column_values(col).tobytes() == t.q[:, col].tobytes()
    assert back.n_states() == t.n_states() > 0
    assert back._q is None  # neither built the dense table
    assert back.q.tobytes() == t.q.tobytes()


def test_loaded_tables_stay_sparse_through_run_flights(tmp_path):
    from uavnav.config import TrainConfig
    from uavnav.harness import build_world, cmd_train, load_artifacts, run_flights

    from reference import same_flights

    cfg = TrainConfig(grid=GridSpec(nx=5, ny=5, nz=2), bands_mhz=(900.0, 1800.0),
                      episodes_strategic=300, episodes_adaptive=50)
    out = cmd_train(cfg, tmp_path / "run")
    _, strategic, adaptive = load_artifacts(out)
    world = build_world(cfg)
    flights = run_flights(cfg, world, strategic, adaptive, 10, seed=2)
    assert strategic._q is None
    assert all(t._q is None for t in adaptive.values())
    # the same flights as on the dense tables
    _, dense, dense_adaptive = load_artifacts(out)
    for table in (dense, *dense_adaptive.values()):
        assert table.q.any()
    assert same_flights(run_flights(cfg, world, dense, dense_adaptive, 10, seed=2), flights)


def _values_start(path):
    """The offset in the file of the first value of the dictionary."""
    data = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("dictionary.npy")
    at = info.header_offset + 30 + len(info.filename)
    return at + _npy_header_bytes(data[at:])


def test_load_rejects_a_flipped_byte_in_values(tmp_path):
    path = tmp_path / "t.npz"
    save(_random_table(random.Random(4), kind="strategic", n_states=6, grid=ODD_GRID), path)
    data = bytearray(path.read_bytes())
    # the lowest byte of a value: still finite and not zero, but not what was saved
    data[_values_start(path) + 8 * 5] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="CRC"):
        load(path)


def test_load_rejects_a_set_padding_bit_in_any_row(tmp_path):
    t = _random_table(random.Random(4), kind="strategic", n_states=6, grid=ODD_GRID)
    members = _members(t, tmp_path / "t.npz")
    for row in range(t.columns):
        for bit in range(6):
            broken = members["occupied"].copy()
            broken[row, -1] |= 1 << bit
            _write_zip(tmp_path / "t.npz", {**members, "occupied": broken})
            with pytest.raises(CheckpointError, match="padding"):
                load(tmp_path / "t.npz")
