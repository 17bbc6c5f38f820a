"""Verify reports are pinned byte for byte.

Each case runs ``run_checks("all", ...)`` and compares the sha256 of the
report, with every ``elapsed_s`` removed and keys sorted, against a digest
recorded before the calculus operators were rewritten as compositions of
tensor kernels.  The cases are the unmutated seeds 0-4 at ``cases=8``,
every Hodge-sign mutation 0-8 at ``cases=2`` (whose residuals expose each
check's draws) and seed 0 at ``cases=64``.
"""

import hashlib
import json

import pytest

from cayley8.verify import run_checks

DIGESTS = [
    (0, 8, None, "3db68be49df142948379e450ca1d46d021699cf8dd6cdc9e8d648674a8c8288e"),
    (1, 8, None, "6da22a878729be06bf999dad566d43d62b874e1cd7152aead0ea3ef7168b3aca"),
    (2, 8, None, "38b022acebe817bdc79e312e4871bcf4dbcf22b5c2ef893187d5ec02605e09d7"),
    (3, 8, None, "7aa184e3ce38797591a2697f3f36ae67d88f43f8539fe37fd24c52eeab787a94"),
    (4, 8, None, "edd82c556bf4833c3e6d3c161c67a24b765cc94adc679c1cd5f9e9db5a6f90f3"),
    (0, 2, 0, "ace1ff26bfa4474166ff65831ab53e669077254a3dfa68cc0139a47f1c482d51"),
    (0, 2, 1, "3e3417dae56ef5c57d17b4c91d0f95d2f1a6b201808f74dd98106c7cc73ea5c0"),
    (0, 2, 2, "dd28a17e89d1896dfd75ccbbd8ed4d379c6cdf7a822ee24570bce651e79bc8d9"),
    (0, 2, 3, "063f6616770b7f131ca79cfde809dd60fe7baa3a36eabcdad5146228d5673211"),
    (0, 2, 4, "aeb76958bde1dfa3c8c0ca065a18f9a95165e8bcd7e8d8e090308ec9802fdf52"),
    (0, 2, 5, "a68a482c25e3b8e5d7f036e75ef6e055f9945d9fffa72f12b9b257ae4db66df8"),
    (0, 2, 6, "b11de6a472721e9fa4003a9b0582abcb5fd1e8cfc1d7b4ad4a907c89806cef51"),
    (0, 2, 7, "5762d87802550b1fe37ef8fadb88251571ad58370216d9184ef5e16a3b1541cb"),
    (0, 2, 8, "47771f39c1d7439d1ced19210425726bf2e305d3141920dfa61af933a8363df0"),
    (0, 64, None, "f3549fb1588518409f05b894b0c5e1b407d10f62b00393989a35d4a98021f22d"),
]


def report_digest(report: dict) -> str:
    stripped = dict(report)
    stripped["checks"] = [{k: v for k, v in check.items() if k != "elapsed_s"} for check in report["checks"]]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    ("seed", "cases", "mutate", "digest"),
    DIGESTS,
    ids=[f"seed{s}-cases{c}" + ("" if m is None else f"-mutate{m}") for s, c, m, _ in DIGESTS],
)
def test_report_digest(seed, cases, mutate, digest):
    report = run_checks("all", seed=seed, cases=cases, star_flip_degree=mutate)
    assert report_digest(report) == digest
