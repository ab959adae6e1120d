"""Bit-exact regression of the three SOP quadratures.

Each row pins ``float.hex`` of ``.value`` and ``.error`` and the exact
``.subdivisions`` of ``sop_quad_exact_q``, ``sop_quad_approx_q`` and
``sop_quad_asymptotic``, compared with ``==``.  The CSV prints only the
values, so a change to the Gauss-Kronrod driver that moves an error
estimate, reorders an accumulation or takes one more split fails here
first.  The rows are ``tests/test_golden_bits.py``'s twelve points at the
default geometry plus the ``eav-distance`` benchmark's slowest points
(N=256, M=1, eavesdropper at 38 m, -10 and 0 dB).
"""

import pytest

from ris_sop.quadrature import sop_quad_approx_q, sop_quad_asymptotic, sop_quad_exact_q
from ris_sop.sysmodel import SystemConfig

ROUTES = {
    "exact_q": sop_quad_exact_q,
    "approx_q": sop_quad_approx_q,
    "asymptotic": sop_quad_asymptotic,
}

# (N, M, gamma0_db, d_re) -> {route: (value, error, subdivisions)}
GOLDEN = {
    (64, 1, -10.0, 30.0): {
        "exact_q": ("0x1.fffffffffffe1p-1", "0x1.5ac14c242d7bep-40", 1),
        "approx_q": ("0x1.fffffffffffe1p-1", "0x1.5ac14c242d7bep-40", 1),
        "asymptotic": ("0x1.8c75fd53aab3ap-7", "0x1.0b5646ed9bddfp-44", 0),
    },
    (64, 16, -6.0, 30.0): {
        "exact_q": ("0x1.fffffc27e7016p-1", "0x1.9af85a9425f78p-36", 0),
        "approx_q": ("0x1.fffffb5dd41b4p-1", "0x1.9c7d629425f78p-36", 0),
        "asymptotic": ("0x1.a650fd7824ee0p-10", "0x1.5cbeffb0607c4p-45", 3),
    },
    (256, 3, -15.0, 30.0): {
        "exact_q": ("0x1.d8e7bf687b386p-1", "0x1.46a6158f3e33ep-40", 1),
        "approx_q": ("0x1.d8e429bab0442p-1", "0x1.047097e7bf19fp-39", 1),
        "asymptotic": ("0x1.57f29be7139e9p-29", "0x1.267a8f37d4085p-62", 1),
    },
    (256, 16, -15.0, 30.0): {
        "exact_q": ("0x1.5952534b33719p-1", "0x1.578adafdf7168p-37", 1),
        "approx_q": ("0x1.592a1dd7d6b70p-1", "0x1.b106afa8f3cb4p-36", 1),
        "asymptotic": ("0x1.215a3a9b4204ap-32", "0x1.95e89c75fa1eap-67", 3),
    },
    (64, 1, 20.0, 30.0): {
        "exact_q": ("0x1.97c41eef264f8p-7", "0x1.12e52bbe08c74p-44", 0),
        "approx_q": ("0x1.97c41ee6bbe5ep-7", "0x1.5b187935608c7p-40", 0),
        "asymptotic": ("0x1.8c75fd53aab33p-7", "0x1.0b59cea79be6ap-44", 0),
    },
    (64, 3, 20.0, 30.0): {
        "exact_q": ("0x1.3bec97d714a9cp-8", "0x1.0ac53dfd85cb2p-42", 0),
        "approx_q": ("0x1.3ce4c0e645905p-8", "0x1.057fa6c95cc18p-42", 3),
        "asymptotic": ("0x1.332a4ff5562cfp-8", "0x1.03647717dc82ep-42", 0),
    },
    (64, 8, 40.0, 30.0): {
        "exact_q": ("0x1.3b90138bf5792p-9", "0x1.301e50b4399e2p-44", 1),
        "approx_q": ("0x1.3c037a259b2dep-9", "0x1.3ec4d2e8aba71p-43", 3),
        "asymptotic": ("0x1.3b795db588026p-9", "0x1.30096273c8c62p-44", 1),
    },
    (64, 16, 0.0, 30.0): {
        "exact_q": ("0x1.b7215fade305ep-6", "0x1.64db93e3e8a7cp-41", 3),
        "approx_q": ("0x1.b7ab451d892cbp-6", "0x1.c69a5f2cdc97cp-41", 4),
        "asymptotic": ("0x1.a650fd7824edcp-10", "0x1.5cbf4f8f18dc4p-45", 3),
    },
    (256, 1, 40.0, 30.0): {
        "exact_q": ("0x1.a48853b529ac2p-26", "0x1.c81b7083065a4p-61", 0),
        "approx_q": ("0x1.a488764c014fep-26", "0x1.628e0352b5374p-60", 1),
        "asymptotic": ("0x1.a480c28fa1eeep-26", "0x1.c81220675b68dp-61", 0),
    },
    (256, 3, 0.0, 30.0): {
        "exact_q": ("0x1.5b5239e6a21ecp-28", "0x1.2968011e53650p-61", 1),
        "approx_q": ("0x1.5da7a7465c42ep-28", "0x1.2e1e7e48d8ddcp-62", 4),
        "asymptotic": ("0x1.57f29be7139e6p-29", "0x1.267a736b66185p-62", 1),
    },
    (256, 8, 20.0, 30.0): {
        "exact_q": ("0x1.49a0531006a49p-31", "0x1.ae5afd5946909p-65", 1),
        "approx_q": ("0x1.4c53b145f0b1ep-31", "0x1.8505fae3b6148p-66", 4),
        "asymptotic": ("0x1.475142a973b5fp-31", "0x1.ab543dfbebb38p-65", 1),
    },
    (256, 16, 40.0, 30.0): {
        "exact_q": ("0x1.215f6f93c08d5p-32", "0x1.95f0a0c974a3cp-67", 3),
        "approx_q": ("0x1.21c602a111b35p-32", "0x1.9d973c225a8cfp-67", 4),
        "asymptotic": ("0x1.215a3a9b4204ap-32", "0x1.95e83b42ebfeap-67", 3),
    },
    (256, 1, -10.0, 38.0): {
        "exact_q": ("0x1.0904135a0d925p-29", "0x1.c9a51bc875c30p-65", 0),
        "approx_q": ("0x1.0bb55b8e9689dp-29", "0x1.d676e06b0b22fp-65", 0),
        "asymptotic": ("0x1.cf147c5c95340p-53", "0x1.63b2d131873b9p-88", 0),
    },
    (256, 1, 0.0, 38.0): {
        "exact_q": ("0x1.20ef461bcc501p-50", "0x1.dae018ab601a8p-86", 0),
        "approx_q": ("0x1.23dec667c61d0p-50", "0x1.e1eeff5248852p-86", 0),
        "asymptotic": ("0x1.cf147c5c95343p-53", "0x1.63b094c1c2bb9p-88", 0),
    },
}

CASES = [
    pytest.param(point, route, pinned, id="N{}-M{}-{}dB-{}m-".format(*point) + route)
    for point, routes in GOLDEN.items()
    for route, pinned in routes.items()
]


@pytest.mark.parametrize("point,route,pinned", CASES)
def test_quadratures_reproduce_bit_for_bit(point, route, pinned):
    n, m, gamma0_db, d_re = point
    cfg = SystemConfig(n_elements=n, n_users=m, gamma0_db=gamma0_db, d_re=d_re)
    res = ROUTES[route](cfg)
    assert (res.value.hex(), res.error.hex(), res.subdivisions) == pinned
