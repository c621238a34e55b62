import json
import math
import random
import time
import zipfile

import numpy as np
import pytest

from uavnav.gridworld import ACTIONS, Action, GridSpec
from uavnav.qcore import (
    FORMAT_VERSION,
    CheckpointError,
    EpsilonSchedule,
    Hyper,
    QTable,
    load,
    q_update,
    save,
    select_action,
)

GRID = GridSpec()


def make_table(kind="adaptive", goal_conditioned=False, **kw):
    return QTable(
        kind=kind,
        grid=GRID,
        hyper=Hyper(),
        seed=0,
        goal_conditioned=goal_conditioned,
        **kw,
    )


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
    s, s2 = (0, 0, 0), (1, 0, 0)
    # alpha=1, gamma=0 writes the reward verbatim: seed next-state max = 4
    q_update(t, s2, Action.PLUS_X, 4.0, (2, 0, 0), Hyper(alpha=1.0, gamma=0.0))
    q_update(t, s2, Action.PLUS_Y, 1.0, (2, 0, 0), Hyper(alpha=1.0, gamma=0.0))
    assert t.max_value(s2) == 4.0
    v = q_update(t, s, Action.PLUS_X, 10.0, s2, Hyper(alpha=0.8, gamma=0.5))
    assert abs(v - 9.6) < 1e-12
    assert t.get(s, Action.PLUS_X) == v


def test_q_update_fixed_point_zero():
    t = make_table()
    v = q_update(t, (0, 0, 0), Action.PLUS_X, 0.0, (1, 0, 0), Hyper())
    assert v == 0.0
    assert t.n_states() == 0  # nothing worth storing


def test_q_update_alpha1_gamma0_collapses_to_reward():
    t = make_table()
    s = (4, 4, 0)
    q_update(t, s, Action.MINUS_Z, -3.0, (4, 4, 1), Hyper())
    v = q_update(t, s, Action.MINUS_Z, 7.0, (4, 4, 1), Hyper(alpha=1.0, gamma=0.0))
    assert v == 7.0


def test_q_update_rejects_nonfinite_reward():
    t = make_table()
    with pytest.raises(ValueError):
        q_update(t, (0, 0, 0), Action.PLUS_X, math.inf, (1, 0, 0), Hyper())


def test_q_update_locality():
    rng = random.Random(1)
    t = make_table()
    for _ in range(200):
        s = (rng.randrange(20), rng.randrange(20), rng.randrange(5))
        q_update(t, s, ACTIONS[rng.randrange(6)], rng.uniform(-5, 5), s, Hyper())
    before = {(s, a): v for s, a, v in t.entries()}
    target_s, target_a = (1, 2, 3), Action.PLUS_Y
    q_update(t, target_s, target_a, 2.5, (9, 9, 4), Hyper())
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
    s, s2 = (0, 0, 0), (1, 1, 1)
    h = Hyper(alpha=0.8, gamma=0.5)
    q_update(t, s2, Action.PLUS_X, 4.0, (2, 2, 2), Hyper(alpha=1.0, gamma=0.0))
    r = 3.0
    target = r + h.gamma * t.max_value(s2)
    for _ in range(200):
        q_update(t, s, Action.MINUS_Y, r, s2, h)
    assert abs(t.get(s, Action.MINUS_Y) - target) < 1e-6


def test_select_action_pure_exploration_uniform():
    t = make_table()
    rng = random.Random(0)
    counts = {a: 0 for a in ACTIONS}
    n = 10_000
    for _ in range(n):
        counts[select_action(t, (0, 0, 0), 1.0, rng)] += 1
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # chi-square df=5 at the 0.001 level


def test_select_action_pure_exploitation():
    t = make_table()
    s = (0, 0, 0)
    q_update(t, s, Action.PLUS_X, 5.0, (1, 0, 0), Hyper(alpha=1.0, gamma=0.0))
    rng = random.Random(0)
    for _ in range(100):
        assert select_action(t, s, 0.0, rng) == Action.PLUS_X


def test_select_action_uniform_tie_break():
    t = make_table()
    s = (2, 2, 2)
    for a in ACTIONS:  # all equal, nonzero
        q_update(t, s, a, 3.0, s, Hyper(alpha=1.0, gamma=0.0))
    assert t.values(s) == (3.0,) * 6
    rng = random.Random(123)
    n = 60_000
    counts = {a: 0 for a in ACTIONS}
    for _ in range(n):
        counts[select_action(t, s, 0.0, rng)] += 1
    # binomial p=1/6: five sigma around the mean
    sigma = math.sqrt(n * (1 / 6) * (5 / 6))
    for c in counts.values():
        assert abs(c - n / 6) < 5 * sigma


def test_select_action_restricted_candidates():
    t = make_table()
    s = (0, 0, 0)
    q_update(t, s, Action.PLUS_X, 9.0, s, Hyper(alpha=1.0, gamma=0.0))
    rng = random.Random(0)
    picked = select_action(t, s, 0.0, rng, candidates=(Action.PLUS_Y, Action.MINUS_Y))
    assert picked in (Action.PLUS_Y, Action.MINUS_Y)
    with pytest.raises(ValueError):
        select_action(t, s, 0.0, rng, candidates=())


def test_argmax_shift_invariance():
    rng = random.Random(7)
    for _ in range(50):
        t1, t2 = make_table(), make_table()
        s = (1, 1, 1)
        values = [rng.uniform(-10, 10) for _ in ACTIONS]
        shift = rng.uniform(-100, 100)
        t1.set_values(s, values)
        t2.set_values(s, [v + shift for v in values])
        r1 = select_action(t1, s, 0.0, random.Random(99))
        r2 = select_action(t2, s, 0.0, random.Random(99))
        assert r1 == r2


def test_epsilon_schedule():
    sched = EpsilonSchedule(epsilon0=1.0, epsilon_min=0.05, decay=0.99)
    assert sched.at(0) == 1.0
    assert abs(sched.at(300) - 0.05) < 1e-12  # 0.99**300 ~ 0.049 < floor
    const = EpsilonSchedule(epsilon0=0.7, epsilon_min=0.0, decay=1.0)
    assert const.at(10_000) == 0.7
    eps = [sched.at(i) for i in range(0, 500, 25)]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    with pytest.raises(ValueError):
        EpsilonSchedule(epsilon0=0.0)
    with pytest.raises(ValueError):
        EpsilonSchedule(epsilon_min=2.0)
    with pytest.raises(ValueError):
        sched.at(-1)


def _random_table(rng, kind="strategic", n_states=60):
    t = make_table(kind=kind, goal_conditioned=(kind == "strategic"))
    for _ in range(n_states):
        pos = (rng.randrange(20), rng.randrange(20), rng.randrange(5))
        if kind == "strategic":
            dest = (rng.randrange(20), rng.randrange(20), rng.randrange(5))
            key = (pos, dest)
        else:
            key = pos
        t.set_values(key, [rng.uniform(-100, 100) for _ in ACTIONS])
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
        assert back.goal_conditioned == t.goal_conditioned


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
        t = make_table(kind=kind, goal_conditioned=(kind == "strategic"), f_mhz=1800.0)
        save(t, tmp_path / "empty.npz")
        back = load(tmp_path / "empty.npz")
        assert back.n_states() == 0
        assert back.f_mhz == 1800.0
        assert back.goal_conditioned == t.goal_conditioned
        assert back == t


def test_all_zero_rows_round_trip(tmp_path):
    # A row whose values are all zero is not stored: it reads as absent.
    for kind in ("strategic", "adaptive"):
        t = _random_table(random.Random(5), kind=kind, n_states=10)
        n = t.n_states()
        zero_key = next(t.rows())[0]
        t.set_values(zero_key, [0.0] * 6)
        assert t.n_states() == n - 1
        assert zero_key not in dict(t.rows())
        save(t, tmp_path / "z.npz")
        with np.load(tmp_path / "z.npz") as npz:
            assert npz["keys"].shape[0] == n - 1
        back = load(tmp_path / "z.npz")
        assert list(back.rows()) == list(t.rows())
        assert back.values(zero_key) == (0.0,) * 6
        assert back == t


def test_save_bytes_stable_across_clock_and_insertion_order(tmp_path, monkeypatch):
    t = _random_table(random.Random(9), kind="strategic", n_states=80)
    save(t, tmp_path / "a.npz")
    shuffled = make_table(kind="strategic", goal_conditioned=True)
    items = list(t.rows())
    random.Random(1).shuffle(items)
    for key, row in items:
        shuffled.set_values(key, row)
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    save(shuffled, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    assert zipfile.is_zipfile(tmp_path / "a.npz")


def _members(table, path):
    """The arrays and metadata that ``save`` writes for ``table``."""
    save(table, path)
    with np.load(path, allow_pickle=False) as npz:
        return npz["keys"], npz["values"], json.loads(npz["meta"].item())


def _write_members(path, keys, values, meta):
    """A checkpoint zip built by hand, so any member can be malformed."""
    if isinstance(meta, dict):
        meta = np.array(json.dumps(meta))
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in (("keys", keys), ("values", values), ("meta", meta)):
            with zf.open(f"{name}.npy", "w") as f:
                np.lib.format.write_array(f, np.asarray(array), allow_pickle=True)


def test_hand_built_checkpoint_loads(tmp_path):
    # the corruption tests below start from this valid baseline
    t = _random_table(random.Random(2), kind="strategic", n_states=5)
    keys, values, meta = _members(t, tmp_path / "t.npz")
    _write_members(tmp_path / "copy.npz", keys, values, meta)
    assert load(tmp_path / "copy.npz") == t


def test_load_rejects_newer_version(tmp_path):
    keys, values, meta = _members(make_table(), tmp_path / "t.npz")
    meta["format_version"] = FORMAT_VERSION + 1
    _write_members(tmp_path / "t.npz", keys, values, meta)
    with pytest.raises(CheckpointError, match="newest supported"):
        load(tmp_path / "t.npz")


@pytest.mark.parametrize("version", ["1", 2.0, True, None, FORMAT_VERSION - 1])
def test_load_rejects_non_int_or_old_version(tmp_path, version):
    keys, values, meta = _members(make_table(), tmp_path / "t.npz")
    meta["format_version"] = version
    _write_members(tmp_path / "t.npz", keys, values, meta)
    with pytest.raises(CheckpointError):
        load(tmp_path / "t.npz")


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


# Each maps the (keys, values, meta) that ``save`` wrote to a broken triple.
_CORRUPTIONS = {
    "keys_int64": lambda k, v, m: (k.astype(np.int64), v, m),
    "keys_1d": lambda k, v, m: (k.ravel(), v, m),
    "values_float32": lambda k, v, m: (k, v.astype(np.float32), m),
    "values_short_row": lambda k, v, m: (k, v[:, :5], m),
    "values_missing_row": lambda k, v, m: (k, v[1:], m),
    "width_3_when_goal": lambda k, v, m: (k[:, :3], v, m),
    "width_6_when_position": lambda k, v, m: (k, v, {**m, "goal_conditioned": False}),
    "key_off_grid": lambda k, v, m: (_set(k, (0, 0), GRID.nx), v, m),
    "dest_off_grid": lambda k, v, m: (_set(k, (0, 5), GRID.nz), v, m),
    "key_negative": lambda k, v, m: (_set(k, (1, 1), -1), v, m),
    "value_nan": lambda k, v, m: (k, _set(v, (0, 0), math.nan), m),
    "value_inf": lambda k, v, m: (k, _set(v, (1, 2), -math.inf), m),
    "duplicate_key": lambda k, v, m: (_set(k, 1, k[0]), v, m),
    "object_values": lambda k, v, m: (k, v.astype(object), m),
    "meta_not_object": lambda k, v, m: (k, v, np.array("[1, 2]")),
    "meta_not_unicode": lambda k, v, m: (k, v, np.array(b"{}")),
    "meta_bad_grid": lambda k, v, m: (k, v, {**m, "grid": {**m["grid"], "nx": 0}}),
    "meta_bad_hyper": lambda k, v, m: (k, v, {**m, "hyper": {"alpha": 2.0, "gamma": 0.5}}),
    "meta_bad_kind": lambda k, v, m: (k, v, {**m, "kind": "tactical"}),
    "meta_no_seed": lambda k, v, m: (k, v, {x: m[x] for x in m if x != "seed"}),
    "meta_float_grid": lambda k, v, m: (k, v, {**m, "grid": {**m["grid"], "nx": 20.0}}),
    "meta_text_band": lambda k, v, m: (k, v, {**m, "f_mhz": "900"}),
}


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_load_rejects_malformed_members(tmp_path, name):
    t = _random_table(random.Random(4), kind="strategic", n_states=6)
    keys, values, meta = _members(t, tmp_path / "t.npz")
    _write_members(tmp_path / "t.npz", *_CORRUPTIONS[name](keys, values, meta))
    with pytest.raises(CheckpointError):
        load(tmp_path / "t.npz")


def test_load_refuses_table_over_the_size_limit(tmp_path):
    # an empty table on a 6,689-cell grid would take over 2 GiB when dense
    keys, values, meta = _members(make_table("strategic", goal_conditioned=True),
                                  tmp_path / "t.npz")
    meta["grid"] = {**meta["grid"], "nx": 6689, "ny": 1, "nz": 1}
    _write_members(tmp_path / "t.npz", keys, values, meta)
    with pytest.raises(CheckpointError, match="GiB"):
        load(tmp_path / "t.npz")


def test_load_rejects_wrong_member_set(tmp_path):
    t = _random_table(random.Random(4), kind="adaptive", n_states=6)
    keys, values, meta = _members(t, tmp_path / "t.npz")
    np.savez(tmp_path / "two.npz", keys=keys, values=values)
    with pytest.raises(CheckpointError):
        load(tmp_path / "two.npz")
    np.save(tmp_path / "bare.npy", values)
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


def test_lookup_default_zero():
    t = make_table()
    assert t.get((9, 9, 4), Action.PLUS_X) == 0.0
    assert t.values((9, 9, 4)) == (0.0,) * 6
    assert t.max_value((9, 9, 4)) == 0.0
