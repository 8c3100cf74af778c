"""The interpreter computes the ``math.hypot`` bits the goldens hold.

An interpreter whose ``math.hypot`` rounds differently (CPython 3.9
does, on ~35% of random pairs) would fail every golden with a bare
byte mismatch; this test fails first, with the cause named.
"""

from tests._golden_env import env_note, hypot_digest, recorded_env


def test_math_hypot_bits_match_the_goldens():
    env = recorded_env()
    digest = hypot_digest(env["hypot_pairs"], env["hypot_seed"])
    assert digest == env["hypot_sha256"], (
        "math.hypot rounds differently on this interpreter than on "
        f"the ones the goldens were recorded with ({env_note()}; "
        f"digest verified on python {env['hypot_sha256_pythons']})"
    )


def test_recorded_env_names_every_version():
    env = recorded_env()
    assert {"python", "numpy", "scipy", "networkx"} <= set(env)
    assert "goldens verified under python " in env_note()
