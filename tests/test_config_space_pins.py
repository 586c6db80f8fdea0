"""Result digests pinned across the stream-buffer configuration space.

Every stream-buffer machine of ``repro-sim`` (plus ``psb`` with FIFO
lookup and with overlap checking off) runs three workloads at a short
shape, and the sha256 of its whole ``SimulationResult`` must equal the
digest recorded below.  The digest is taken as in the end-to-end
benchmark: ``dataclasses.asdict(result)`` as sorted JSON.  The pins
cover what the benchmark's own pins (``psb``, ``psb-harmonic``) do not:
round-robin scheduling, two-miss allocation, ``credence`` sharing,
FIFO lookup and overlapping streams.  A host-time optimisation of the
controller must leave every digest unchanged; a deliberate change of
simulated behaviour re-pins them.
"""

import dataclasses
import hashlib
import json
from dataclasses import replace

import pytest

from repro.cli import MACHINES
from repro.sim.simulator import simulate
from repro.workloads import get_workload

INSTRUCTIONS = 4_000
WARMUP = 1_000
WORKLOADS = ("sis", "health", "many_streams")


def _psb_with(**stream_buffer_fields):
    def build():
        config = MACHINES["psb"]()
        prefetch = config.prefetch
        stream_buffers = replace(prefetch.stream_buffers, **stream_buffer_fields)
        return config.with_prefetcher(
            replace(prefetch, stream_buffers=stream_buffers)
        )

    return build


#: Every pinned configuration, by name, to the function that makes it.
CONFIGS = {
    name: MACHINES[name]
    for name in (
        "stride",
        "2miss-rr",
        "2miss-priority",
        "confalloc-rr",
        "psb",
        "psb-harmonic",
        "psb-credence",
        "jouppi",
        "min-delta",
    )
}
CONFIGS["psb-fifo"] = _psb_with(associative_lookup=False)
CONFIGS["psb-overlap"] = _psb_with(check_overlap=False)

#: sha256 of ``asdict(result)`` as sorted JSON, per (config, workload).
PINS = {
    ("2miss-priority", "sis"): "18f58b74a69841843d5a9e2851fa68670b42947dfe7647f400eb43f36fc3e583",
    ("2miss-priority", "health"): "28b1057b51c601631bb18268edd5be26b704e5c0e14aa371b9d50074af0888ac",
    ("2miss-priority", "many_streams"): "187ad5031457f4ba48ccb18e1e404b74cdc9ec91a988ba5f0a8651e545144173",
    ("2miss-rr", "sis"): "92b36d813ce404683e1062f901dad6095b4045c985fec9f6609f211d29e51dbd",
    ("2miss-rr", "health"): "28b1057b51c601631bb18268edd5be26b704e5c0e14aa371b9d50074af0888ac",
    ("2miss-rr", "many_streams"): "84089967e15f14d81badbfc595620bbee7ee4d1fb821089728edb9682eac85c5",
    ("confalloc-rr", "sis"): "b97dd8ed4aab595bfdad741929aac75fa64a37b535afbcf3f3e90d7367ad410a",
    ("confalloc-rr", "health"): "226cee357368bfacd78d53dc610d907038c1e499cdb964f91d36111115da2dce",
    ("confalloc-rr", "many_streams"): "f51c2195929aa7cd325276c38af151cd4a063f5a4c2e6c32a1587d2a032d119f",
    ("jouppi", "sis"): "88054f14f289bb27300cf9ee08e59a9894735ad81b67480dd829e44747260500",
    ("jouppi", "health"): "f2f28cf424919307cbdd1a8715f9509c1ecbedccafc66eb0faac4d8ce8f4c523",
    ("jouppi", "many_streams"): "0d65de698dcc8d218e9d8918d40f4b5f8b448cf44bb9623abefbaace28769d2b",
    ("min-delta", "sis"): "61f44c73dc17d9b9cb1eba61d2bca297bced47c70be7a9dd133f1c9ab56293f5",
    ("min-delta", "health"): "c447a1bcbe81992677ca9ad037e1278c27efae43788c1e8c3bd4a0a3070521af",
    ("min-delta", "many_streams"): "3de9593fde27fdc7db50865f8415dde61d52f31716e80b554ef4ccffbb68f0b2",
    ("psb", "sis"): "24c87d8dd50486ae726b3aa4dd8c8d6249042e6d23a5d5e9b99a28986d43fa96",
    ("psb", "health"): "226cee357368bfacd78d53dc610d907038c1e499cdb964f91d36111115da2dce",
    ("psb", "many_streams"): "187ad5031457f4ba48ccb18e1e404b74cdc9ec91a988ba5f0a8651e545144173",
    ("psb-credence", "sis"): "91c0557414fbf19fe4c1768a95515abebcbe7ba4c814cbf64844152fc090de82",
    ("psb-credence", "health"): "e17ceaa07c0d0956b0c08c6f78e139902b7f7a0ba4eedc8848b92122ced76b73",
    ("psb-credence", "many_streams"): "b90a79260d8e1b70d0affed0c6cade499551162eb978fa5b539004fa89e574bc",
    ("psb-fifo", "sis"): "7804272280f50a97f8e909d25842d1ae87091392cb580dbc747d6ef1c9f5754d",
    ("psb-fifo", "health"): "226cee357368bfacd78d53dc610d907038c1e499cdb964f91d36111115da2dce",
    ("psb-fifo", "many_streams"): "187ad5031457f4ba48ccb18e1e404b74cdc9ec91a988ba5f0a8651e545144173",
    ("psb-harmonic", "sis"): "6ae0cc41151e5b9092bb3017979f0ba1f31892a919cadedca2828808a066574e",
    ("psb-harmonic", "health"): "e17ceaa07c0d0956b0c08c6f78e139902b7f7a0ba4eedc8848b92122ced76b73",
    ("psb-harmonic", "many_streams"): "e77f9011f00a43bc24641f90862124c215857ca4d943238a3a61bc1aa2a83d94",
    ("psb-overlap", "sis"): "03c3b0da928488ed5c64c9907698c76951fe6daee6b537edcd4a1d284859aab5",
    ("psb-overlap", "health"): "226cee357368bfacd78d53dc610d907038c1e499cdb964f91d36111115da2dce",
    ("psb-overlap", "many_streams"): "187ad5031457f4ba48ccb18e1e404b74cdc9ec91a988ba5f0a8651e545144173",
    ("stride", "sis"): "cf372228cd116e2d9403b33130e7a4c0806b4b0c8dd0130fa72399f9083768c9",
    ("stride", "health"): "eeaaa2792b6d1a65bfbef9a176e5b3e160f96ea08b3da696dd2c6fd49646fdad",
    ("stride", "many_streams"): "0dcb28094fe86d8936e5fdbea97b71ab22e63f3cbd5917630f95759bddc18b17",
}


def result_digest(config_name: str, workload: str) -> str:
    """Run one pinned point and digest its result."""
    result = simulate(
        CONFIGS[config_name](),
        get_workload(workload, seed=1),
        max_instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
    )
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_result_digest_is_pinned(config_name, workload):
    assert result_digest(config_name, workload) == PINS[
        (config_name, workload)
    ]
