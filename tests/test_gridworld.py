import random

import pytest

from uavnav.gridworld import (
    ACTION_DELTAS,
    ACTIONS,
    GridSpec,
    GridWorld,
    StepEvent,
    build,
    cell_center_m,
    default_step_cap,
    random_free_cell,
    require_mission_cells,
    require_obstacle_room,
)

SPEC = GridSpec()  # 20x20x5, 50 m / 20 m


def test_default_spec_matches_region():
    assert SPEC.nx * SPEC.cell_size_m == 1000.0
    assert SPEC.ny * SPEC.cell_size_m == 1000.0
    assert SPEC.nz * SPEC.cell_height_m == 100.0
    assert SPEC.n_cells == 2000


def test_spec_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        GridSpec(nx=0)
    with pytest.raises(ValueError):
        GridSpec(cell_size_m=0.0)


def test_build_obstacle_count_5pct():
    world = build(SPEC, 0.05, seed=1)
    assert len(world.obstacles) == 100


def test_build_density_zero_empty():
    world = build(SPEC, 0.0, seed=1)
    assert world.obstacles == frozenset()


def test_build_deterministic():
    a = build(SPEC, 0.3, seed=42, start=(0, 0, 0), bs_xy=(10, 10, 0))
    b = build(SPEC, 0.3, seed=42, start=(0, 0, 0), bs_xy=(10, 10, 0))
    assert a.obstacles == b.obstacles
    c = build(SPEC, 0.3, seed=43, start=(0, 0, 0), bs_xy=(10, 10, 0))
    assert a.obstacles != c.obstacles


def test_build_keeps_start_and_bs_column_free():
    world = build(SPEC, 0.5, seed=7, start=(3, 4, 2), bs_xy=(10, 11, 0))
    assert (3, 4, 2) not in world.obstacles
    for z in range(SPEC.nz):
        assert (10, 11, z) not in world.obstacles


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build(SPEC, 0.6, seed=1)
    with pytest.raises(ValueError):
        build(SPEC, -0.1, seed=1)
    with pytest.raises(ValueError):
        build(SPEC, 0.1, seed=1, start=(20, 0, 0))
    # 1x2x1 grid with start and BS column covering both cells: nowhere to
    # put even one obstacle.
    tiny = GridSpec(nx=1, ny=2, nz=1)
    with pytest.raises(ValueError):
        build(tiny, 0.5, seed=1, start=(0, 0, 0), bs_xy=(0, 1, 0))


def test_obstacle_room_counts_the_cells_build_may_fill():
    # every cell of small grids as start and as base station, at the
    # densest setting, against a count of the cells build leaves eligible
    for nx, ny, nz in [(1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 1, 3), (3, 2, 2)]:
        spec = GridSpec(nx=nx, ny=ny, nz=nz)
        cells = [(x, y, z) for x in range(nx) for y in range(ny) for z in range(nz)]
        for start in cells:
            for bs in cells:
                eligible = sum(c != start and c[:2] != bs[:2] for c in cells)
                want = round(0.5 * spec.n_cells)
                if want > eligible:
                    with pytest.raises(ValueError, match=f"{eligible} eligible cells"):
                        require_obstacle_room(spec, 0.5, start, bs)
                    with pytest.raises(ValueError, match="grid too small"):
                        build(spec, 0.5, seed=1, start=start, bs_xy=bs)
                else:
                    assert require_obstacle_room(spec, 0.5, start, bs) == want
                    assert len(build(spec, 0.5, seed=1, start=start, bs_xy=bs).obstacles) == want


def test_transition_totality_and_boundary_safety():
    world = build(SPEC, 0.2, seed=3)
    rng = random.Random(0)
    i = world.spec.index(world.start_cell)
    for _ in range(2000):
        i, _ = world.moves[i][rng.randrange(6)]
        assert 0 <= i < world.spec.n_cells


def test_action_set_is_six_unit_moves():
    assert len(ACTIONS) == 6
    assert len(set(ACTION_DELTAS)) == 6
    for d in ACTION_DELTAS:
        assert sum(abs(v) for v in d) == 1


def test_cell_center_values():
    assert cell_center_m(SPEC, (0, 0, 0)) == (25.0, 25.0, 10.0)
    assert cell_center_m(SPEC, (19, 19, 4)) == (975.0, 975.0, 90.0)


def test_cell_centers_respect_altitude_cap():
    for z in range(SPEC.nz):
        assert cell_center_m(SPEC, (0, 0, z))[2] <= 100.0


def test_random_free_cell_properties():
    world = build(SPEC, 0.3, seed=9)
    rng = random.Random(1)
    missions = world.mission_cells()
    for _ in range(500):
        c = random_free_cell(world, rng, missions)
        assert c not in world.obstacles
        assert c != world.start_cell
        assert world.spec.in_bounds(c)
    # seeded reproducibility
    seq1 = [random_free_cell(world, random.Random(4), missions) for _ in range(1)]
    seq2 = [random_free_cell(world, random.Random(4), missions) for _ in range(1)]
    assert seq1 == seq2


def test_random_free_cell_fully_blocked():
    spec = GridSpec(nx=1, ny=2, nz=1)
    # Single eligible cell becomes an obstacle; only the start stays free.
    world = build(spec, 0.5, seed=1, start=(0, 0, 0), bs_xy=(0, 0, 0))
    assert len(world.obstacles) == 1
    # no mission cell to draw: the set a draw takes is refused
    with pytest.raises(ValueError, match="missions need 1"):
        require_mission_cells(world, False, 1)


def old_random_free_cell(world, rng, layer):
    """The sampler as it was: a free cell other than the start cell, by
    rejection, redrawn by the same rule until it lies on ``layer``."""

    def free_cell():
        spec = world.spec
        while True:
            c = (rng.randrange(spec.nx), rng.randrange(spec.ny), rng.randrange(spec.nz))
            if c != world.start_cell and c not in world.obstacles:
                return c

    c = free_cell()
    while layer is not None and c[2] != layer:
        c = free_cell()
    return c


def test_random_free_cell_draws_as_the_two_level_rejection_loop():
    g = random.Random(0)
    drawn_locked = 0
    for trial in range(40):
        spec = GridSpec(nx=g.randint(2, 5), ny=g.randint(2, 5), nz=g.randint(1, 3))
        start = (g.randrange(spec.nx), g.randrange(spec.ny), g.randrange(spec.nz))
        world = build(spec, g.choice([0.0, 0.2, 0.4]), seed=trial, start=start)
        for locked in (False, True):
            if not world.mission_cells(locked):
                with pytest.raises(ValueError, match="missions need 1"):
                    require_mission_cells(world, locked, 1)
                continue
            drawn_locked += locked
            ours, old = random.Random(trial), random.Random(trial)
            missions = require_mission_cells(world, locked, 1)
            layer = start[2] if locked else None
            for _ in range(30):
                want = old_random_free_cell(world, old, layer)
                assert random_free_cell(world, ours, missions) == want
                assert ours.getstate() == old.getstate()
    assert drawn_locked > 20


def test_mission_cells():
    world = build(GridSpec(nx=4, ny=3, nz=3), 0.3, seed=2, start=(1, 1, 1))
    free = {c for c in world.cells if c not in world.obstacles and c != (1, 1, 1)}
    assert world.mission_cells() == free
    assert world.mission_cells(True) == {c for c in free if c[2] == 1}
    # sorted cells are in flat-index order
    assert [world.spec.index(c) for c in sorted(free)] == sorted(map(world.spec.index, free))
    assert world.mission_cells(True) is world.mission_cells(True)  # built once


def test_default_step_cap():
    assert default_step_cap(SPEC) == 4 * (20 + 20 + 5)


def test_move_table_matches_step_rules():
    # Shapes include one-cell axes, where every move along that axis is
    # blocked; obstacles are drawn directly, so any cell may hold one.
    rng = random.Random(11)
    for trial in range(200):
        spec = GridSpec(nx=rng.randint(1, 6), ny=rng.randint(1, 6), nz=rng.randint(1, 4))
        cells = [(x, y, z) for x in range(spec.nx) for y in range(spec.ny) for z in range(spec.nz)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.3)
        world = GridWorld(spec, obstacles, (0, 0, 0), (0, 0, 0))
        assert list(world.cells) == cells
        for i, c in enumerate(cells):
            assert world.spec.index(c) == i
            for a in ACTIONS:
                d = ACTION_DELTAS[a]
                n = (c[0] + d[0], c[1] + d[1], c[2] + d[2])
                if not spec.in_bounds(n):
                    want = (i, StepEvent.BLOCKED_AT_BOUNDARY)
                elif n in obstacles:
                    want = (cells.index(n), StepEvent.CRASHED_INTO_OBSTACLE)
                else:
                    want = (cells.index(n), StepEvent.MOVED)
                assert world.moves[i][a] == want, (trial, c, a)


def test_move_table_is_built_on_first_use():
    world = build(SPEC, 0.1, seed=2)
    assert "moves" not in vars(world)
    world.moves[world.spec.index(world.start_cell)]
    assert "moves" in vars(world)
