"""Golden content hashes of two fixed experiments.

Each config is trained with ``cmd_train`` and evaluated with
``cmd_evaluate`` at a fixed seed. The test hashes what the run computed,
not how it is stored: every table's rows (keys sorted, each row as six
little-endian float64), the reward CSVs, ``flights.csv``,
``evaluation.json`` and the CSV ``cmd_coverage`` exports for each band. A
change that claims to leave training and evaluation bit-identical must
leave every hash as recorded; a change of checkpoint format does not touch
them.

The adaptive constants were recorded with the code as it stood before
the precomputed world core (move table, coverage-map SNR in flights)
replaced the per-step calls. The strategic ones (``table strategic``,
``rewards_strategic.csv``) and the evaluation outputs that fly the planner
(``flights.csv``, ``evaluation.json``) were re-recorded when the planner's
loop became the lockstep batch loop, which draws its random numbers from
a numpy generator in a different order. The ``evaluation.json`` ones were
re-recorded again when the report dropped its ``normalize_q`` field, the
one line that changed, and when it gained ``flights_sha256``, the sha256
of the ``flights.csv`` beside it; without that line each file hashes to
its previous constant. The coverage constants were recorded with the code
as it stood before every CSV went through one writer and the coverage map
walked the cells in flat-index order. If a change is meant to alter what
is computed, re-record them and say why in CHANGES.md.
"""

import hashlib
import struct

import numpy as np

from uavnav.config import TrainConfig
from uavnav.gridworld import GridSpec
from uavnav.harness import cmd_coverage, cmd_evaluate, cmd_train, load_artifacts
from uavnav.qcore import QTable

CONFIGS = {
    # the byte-determinism config of acceptance criterion 8
    "criterion8": TrainConfig(
        grid=GridSpec(nx=8, ny=8, nz=3),
        obstacle_density=0.1,
        bands_mhz=(900.0, 2100.0),
        episodes_strategic=300,
        episodes_adaptive=150,
        seed=21,
    ),
    # three bands at 15 % density on 100 m cells
    "three_band": TrainConfig(
        grid=GridSpec(nx=10, ny=10, nz=5, cell_size_m=100.0, cell_height_m=20.0),
        obstacle_density=0.15,
        bands_mhz=(900.0, 1800.0, 2100.0),
        episodes_strategic=3000,
        episodes_adaptive=400,
        seed=12,
    ),
}
EVAL_FLIGHTS = 60
EVAL_SEED = 5

GOLDEN = {
    "criterion8": {
        "table strategic": "9df8fb45971634a69905fe7bf5419cc71328dca86d9fdebfac85229acd0ec81e",
        "table adaptive 900": "33ae66b9e05c868cb6c6b117e62340f49ebb0e176761850b5675c2a470ea9fb6",
        "table adaptive 2100": "6e78beeeebac6b0aa0f4eb640c44a17568821847f6b936c7dbf1ef57cee4b319",
        "rewards_strategic.csv": "b80fb9f3340ffb1ffaeb45da000964b1f201400d74a3e7a2e1ab059da644cd88",
        "rewards_adaptive_900.csv": "a801b8c0a9c19cd649acb9c60c9d9fa9a6f679b2a2a25dacc4467bacb1b169c7",
        "rewards_adaptive_2100.csv": "72e94ca9906cfceedb7da28fa1ed0d04db9024dde4b0e032c38aeebe606ab797",
        "flights.csv": "4602a9a09e746cdeb034c60f71bcd5c7561e5749013be2dd23f6e630eed5064d",
        "evaluation.json": "6d69acbdeda875cab0bae1bcac0f27be5f6ffefcd064ddb2cdd175899d28921c",
        "coverage 900": "359d8cf476332919bdb21700e99eedec6c76ab5a8bf644a74c4c3ba81ea69c29",
        "coverage 2100": "bf14289ef9e34132fe58001595b9a024047d829d5a098d3d66e70ffd29822f29",
    },
    "three_band": {
        "table strategic": "1a8953e3af9d4b72e84ea1b1274fc28b9cb83c01dc5efe470e615088617d37e6",
        "table adaptive 900": "1d5c0a05e57d29d4453557248857c0b123efddd9a74398a33a50c8db6ebed8c5",
        "table adaptive 1800": "eda6b29795c3956989189de995bc8fa739b0851c1b6db2a7e25c5fad54f15ec2",
        "table adaptive 2100": "0cfb48ca8a4efeb0bc66b4548da150ba1f75f533d15a166a73a5da107c0d61d8",
        "rewards_strategic.csv": "94ed1b1dd29f59cca47319a5e84676c7c127394450b5ca75f768f45f45426f92",
        "rewards_adaptive_900.csv": "333ab63c66204bcbcba8df5274e76600d6fcb9913add88894106749f249dd994",
        "rewards_adaptive_1800.csv": "80b8089b9958b91178eb5284f4f118028c5161bea1e9284563f32c02778f718c",
        "rewards_adaptive_2100.csv": "ce737f13acc09f0733fa85298f4ede7d3faf838f34fec1b8b50c997cccd29a4a",
        "flights.csv": "64a31c42eaea9aff9f2d9a67ca5f2b55e6af418e531362f937196f575d706c1a",
        "evaluation.json": "91ab94857b85a1643d3fac8b3ddd8bfd2005fbf1e620a226483409233849d70f",
        "coverage 900": "f9c9a8487b95b0a32b7bf312abe9675eb8238ccec40ef777948f73f4163d9c13",
        "coverage 1800": "ae061db644258ab3354ce5ac22d419b8c317846b3cfe7468436b8abda564e7b6",
        "coverage 2100": "e6869f382a47aaf3b51350ab739fddd20c754332992751f4647ec5ce411353a9",
    },
}


def table_digest(table: QTable) -> str:
    """sha256 of the stored rows in (cell, column) order, each keyed by its
    cell, and by its destination too when the table has a column per
    destination. ``q`` is ``q[column, cell, a]``; its transpose gives the
    order the constants were recorded in."""
    g = table.grid
    cells = [(x, y, z) for x in range(g.nx) for y in range(g.ny) for z in range(g.nz)]
    by_cell = table.q.transpose(1, 0, 2)
    h = hashlib.sha256()
    for at, col in np.argwhere(by_cell.any(axis=-1)).tolist():
        key = (cells[at], cells[col]) if table.columns > 1 else cells[at]
        h.update(repr(key).encode())
        h.update(struct.pack("<6d", *by_cell[at, col].tolist()))
    return h.hexdigest()


def run_digests(cfg: TrainConfig, out) -> dict[str, str]:
    art = cmd_train(cfg, out)
    cmd_evaluate(art, n_flights=EVAL_FLIGHTS, seed=EVAL_SEED)
    _, strategic, adaptive = load_artifacts(art)
    digests = {"table strategic": table_digest(strategic)}
    for band, table in sorted(adaptive.items()):
        digests[f"table adaptive {band:g}"] = table_digest(table)
    names = ["rewards_strategic.csv"]
    names += [f"rewards_adaptive_{band:g}.csv" for band in cfg.bands_mhz]
    names += ["flights.csv", "evaluation.json"]
    for name in names:
        digests[name] = hashlib.sha256((art / name).read_bytes()).hexdigest()
    for band in cfg.bands_mhz:
        path = out / f"coverage_{band:g}.csv"
        cmd_coverage(cfg, band, path)
        digests[f"coverage {band:g}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_golden_content_hashes(tmp_path):
    got = {name: run_digests(cfg, tmp_path / name) for name, cfg in CONFIGS.items()}
    assert got == GOLDEN
