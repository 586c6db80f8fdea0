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

Sampled runs are pinned the same way, across every prefetcher family's
fast-forward warming (none, the demand prefetchers' queues, stream
buffers with fixed and pooled entries) in both warming modes: full rate
on the classic grid, and detuned confidence warming on a stratified
grid.
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


SAMPLED_INSTRUCTIONS = 40_000
SAMPLED_WORKLOADS = ("health", "gs")
SAMPLED_MACHINES = (
    "base",
    "next-line",
    "demand-markov",
    "stride",
    "jouppi",
    "psb",
    "psb-harmonic",
)
#: ``with_sampling`` arguments per sampling shape.
SAMPLE_SHAPES = {
    "classic": dict(period=10_000, window=1_000, warmup=500),
    "detuned": dict(
        period=10_000, window=1_000, warmup=500, strata=2,
        warm_confidence=True,
    ),
}

#: sha256 of ``asdict(result)`` as sorted JSON, per (machine, workload,
#: shape) of a sampled run.
SAMPLED_PINS = {
    ("base", "health", "classic"): "66d4ca27b16acc55f920c813f478878c96e0b72222023449c3e921983e152424",
    ("base", "health", "detuned"): "c281b1f0b6246e7f9bfb8c631119bf556f56a86fa4e687c8a954ead9b0679564",
    ("base", "gs", "classic"): "24d4ef9c407ee08cf6d9e03641f95ef7e347bf2232bea7bba499ba12f8a132b3",
    ("base", "gs", "detuned"): "e05a7cdab6a37dd115e6e0a8df8acc055aa83e753b4345890560b0d538977f4c",
    ("next-line", "health", "classic"): "96f050e98a1ca37f10102b730a7deae0541fb7ef163c9d362d3e41a9c927904e",
    ("next-line", "health", "detuned"): "87d03184c6143f1f8669455c2f4c50a3c6995797175d751eeb5d94d3bb1809a5",
    ("next-line", "gs", "classic"): "5f25df63f4174efd25fa381cbc870f79807baa2132dc5464d0dd707a73d066dc",
    ("next-line", "gs", "detuned"): "4af8581981f010109d3c204e29b52fcc6df96c6a536857786c5284b476d6797a",
    ("demand-markov", "health", "classic"): "05d8f591b9420411a38fc812b01a8fcdb51f140256f7c57f5e4696da0987e2bb",
    ("demand-markov", "health", "detuned"): "07697394514b02c2dd90080946ef247119f6126625ac3c3bd86279f3a1e4e0d6",
    ("demand-markov", "gs", "classic"): "9c191999a5dc187b89e18cc56881bfecc3b37884e4a86cfe4b54b4a49e061a2b",
    ("demand-markov", "gs", "detuned"): "a69545a134ef89e0011b3228e03577fddec6492c4151d6f0596ee0bb1214bc40",
    ("stride", "health", "classic"): "83fe9fb088f8173cad7ea8ac3b2cfc54e8047d39e702f08b7b7349aa11bdff3d",
    ("stride", "health", "detuned"): "a552973dc0c329086b8be49a5afb551d3d89694fcf5078afc3a00ad9fb2a5221",
    ("stride", "gs", "classic"): "e3093e90487302a9719a65a2da2a4f121281b318a39412e00e4d6c36155a1e48",
    ("stride", "gs", "detuned"): "2b4d4f8a98f22712ecb69fcbf101edede78be1b63b084cc203076fadb2681f36",
    ("jouppi", "health", "classic"): "0c4e4b3cbd9bd8fdda8a66a113d1cfd6239ed9dd0e682a876c615943b460b5cd",
    ("jouppi", "health", "detuned"): "f3b7bfa7af371666b43ba0af1c74c6a80f7c14818806f2dc2e46093a085b5ef8",
    ("jouppi", "gs", "classic"): "2ac1c3310c2f110390e78717509abf76707905746ae46f66af81430c23052635",
    ("jouppi", "gs", "detuned"): "a4a8852efc075c3d0b2939d5e7ab53935079ebbb9b2748a6cfc54e7d8643b563",
    ("psb", "health", "classic"): "61016d934d1ada2f48c856276aafadf574e3aa07c293438a2b7e9e8f95c3aef7",
    ("psb", "health", "detuned"): "fe4ef4c609b67dce7cb2cae9678be2baf0fcfbb58d8e7355e6953175ecff66e4",
    ("psb", "gs", "classic"): "59e17ee1acfc58aeade52a77f652204028fd052a40e437f46337c2a1bba111da",
    ("psb", "gs", "detuned"): "b37f181f9edb34c7e762b9f1289f2d9a3197577f72e2489ca34aa9887a040190",
    ("psb-harmonic", "health", "classic"): "381ce1259b76fd5bbe0fb44c40a02acc3620437145c57f8d395a2af092e8b78d",
    ("psb-harmonic", "health", "detuned"): "772ad9e53e115c250de5f03483784b521853b6ebe68ab4e66437c29e68414d88",
    ("psb-harmonic", "gs", "classic"): "b7642efd84d3379c85c84e603331184c2f4fb1aae5bdd7ac376fd536509b30c3",
    ("psb-harmonic", "gs", "detuned"): "ae619ab73fb2e0bd90b02e79f230918252ac81fb48d63c4e3f0ec370f21737c8",
}


def _digest(result) -> str:
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def result_digest(config_name: str, workload: str) -> str:
    """Run one pinned point and digest its result."""
    return _digest(simulate(
        CONFIGS[config_name](),
        get_workload(workload, seed=1),
        max_instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
    ))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_result_digest_is_pinned(config_name, workload):
    assert result_digest(config_name, workload) == PINS[
        (config_name, workload)
    ]


@pytest.mark.parametrize("shape", sorted(SAMPLE_SHAPES))
@pytest.mark.parametrize("workload", SAMPLED_WORKLOADS)
@pytest.mark.parametrize("machine", SAMPLED_MACHINES)
def test_sampled_result_digest_is_pinned(machine, workload, shape):
    config = MACHINES[machine]().with_sampling(**SAMPLE_SHAPES[shape])
    result = simulate(
        config,
        get_workload(workload, seed=1),
        max_instructions=SAMPLED_INSTRUCTIONS,
    )
    assert _digest(result) == SAMPLED_PINS[(machine, workload, shape)]
