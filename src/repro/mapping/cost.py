"""Cost models for spatial mappings.

The objective of the spatial mapper is to minimise the energy consumption of
the entire application: processing as well as inter-process communication
(paper, section 1.3).  Two cost views are provided:

* :func:`manhattan_cost` — the simple communication metric used by step 2 of
  the algorithm and reported in Table 2: the sum of Manhattan distances of
  all (mapped) data channels of the application.
* :func:`mapping_energy_nj` — the full energy objective: computation energy
  of the chosen implementations plus communication energy proportional to the
  data volume and the number of hops of each channel, plus an activation cost
  for every tile that is switched on for this application.  The relative
  weights live in :class:`CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.channel import Channel
from repro.mapping.mapping import Mapping
from repro.platform.platform import Platform
from repro.platform.routing import manhattan_distance


@dataclass(frozen=True)
class CostModel:
    """Weights of the energy cost model.

    Parameters
    ----------
    energy_per_bit_per_hop_nj:
        Energy to move one bit across one router-to-router hop (links plus
        router traversal).  The default (0.001 nJ = 1 pJ/bit/hop) is in the
        range published for 90-130 nm NoCs, the technology generation of the
        paper's platform.
    tile_activation_energy_nj:
        Energy penalty per iteration for every *additional* tile the
        application occupies.  This models the paper's observation that
        unused parts of the system can be switched off; mapping two processes
        to one tile avoids the second tile's static energy.
    local_channel_energy_per_bit_nj:
        Energy to move one bit between two processes sharing a tile (local
        memory traffic); normally much cheaper than crossing the NoC.
    """

    energy_per_bit_per_hop_nj: float = 0.001
    tile_activation_energy_nj: float = 0.0
    local_channel_energy_per_bit_nj: float = 0.0001

    def __post_init__(self) -> None:
        if self.energy_per_bit_per_hop_nj < 0:
            raise ValueError("energy_per_bit_per_hop_nj must be non-negative")
        if self.tile_activation_energy_nj < 0:
            raise ValueError("tile_activation_energy_nj must be non-negative")
        if self.local_channel_energy_per_bit_nj < 0:
            raise ValueError("local_channel_energy_per_bit_nj must be non-negative")


def _endpoint_tiles(
    mapping: Mapping, als: ApplicationLevelSpec, channel: Channel
) -> tuple[str, str] | None:
    """Tiles of both channel endpoints, or ``None`` when either is still unmapped."""
    tiles: list[str] = []
    for process_name in channel.endpoints():
        process = als.kpn.process(process_name)
        if process.is_pinned and process.pinned_tile is not None:
            tiles.append(process.pinned_tile)
        elif mapping.is_assigned(process_name):
            tiles.append(mapping.tile_of(process_name))
        else:
            return None
    return tiles[0], tiles[1]


def manhattan_cost(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    *,
    weighted_by_tokens: bool = False,
) -> float:
    """Sum of Manhattan distances of all mapped data channels (the Table 2 metric).

    Channels whose endpoints are not both placed yet are skipped, so the
    metric is usable on partial mappings during the search.  With
    ``weighted_by_tokens=True`` each distance is weighted by the channel's
    tokens per iteration, which gives a volume-aware variant used by the
    ablation benchmarks.
    """
    total = 0.0
    for channel in als.kpn.data_channels():
        endpoints = _endpoint_tiles(mapping, als, channel)
        if endpoints is None:
            continue
        source_tile, target_tile = endpoints
        distance = manhattan_distance(
            platform.tile(source_tile).position, platform.tile(target_tile).position
        )
        weight = channel.tokens_per_iteration if weighted_by_tokens else 1.0
        total += distance * weight
    return total


def channel_energy_nj(bits: float, hops: float, model: CostModel) -> float:
    """Energy of one channel's bits per iteration over ``hops`` router hops."""
    if hops == 0:
        return bits * model.local_channel_energy_per_bit_nj
    return bits * hops * model.energy_per_bit_per_hop_nj


def communication_energy_nj(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    cost_model: CostModel | None = None,
) -> float:
    """Communication energy per iteration of all mapped data channels.

    Routed channels use their actual hop count; unrouted (but placed)
    channels fall back to the Manhattan distance estimate, which is exactly
    the look-ahead step 2 of the algorithm performs before routes exist.
    """
    model = cost_model or CostModel()
    total = 0.0
    for channel in als.kpn.data_channels():
        endpoints = _endpoint_tiles(mapping, als, channel)
        if endpoints is None:
            continue
        source_tile, target_tile = endpoints
        if mapping.is_routed(channel.name):
            hops = mapping.route(channel.name).hops
        else:
            hops = manhattan_distance(
                platform.tile(source_tile).position, platform.tile(target_tile).position
            )
        total += channel_energy_nj(channel.bits_per_iteration, hops, model)
    return total


def mapping_energy_nj(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    cost_model: CostModel | None = None,
) -> float:
    """Total energy per iteration of a (possibly partial) mapping.

    Computation energy of all chosen implementations, plus communication
    energy (see :func:`communication_energy_nj`), plus the tile-activation
    penalty for every distinct tile the application occupies.
    """
    model = cost_model or CostModel()
    computation = mapping.computation_energy_nj()
    communication = communication_energy_nj(mapping, als, platform, model)
    activation = model.tile_activation_energy_nj * len(mapping.used_tiles())
    return computation + communication + activation


def mapping_energy_lower_bound_nj(
    mapping: Mapping,
    als: ApplicationLevelSpec,
    platform: Platform,
    cost_model: CostModel | None = None,
) -> float:
    """A lower bound on :func:`mapping_energy_nj` of any routing of ``mapping``.

    Costs every placed data channel at the fewest hops between its endpoint
    routers (:meth:`~repro.platform.noc.NoC.hop_distance`), ignoring any
    routes the mapping holds.  A route never has fewer hops, the bound adds
    the same terms in the same order as :func:`mapping_energy_nj`, and
    floating-point products and sums of non-negative terms are monotone, so
    the bound never exceeds the routed energy, on any topology.  On a mesh
    the hop distance is the Manhattan distance and the bound equals the
    energy of the unrouted mapping.
    """
    model = cost_model or CostModel()
    noc = platform.noc
    communication = 0.0
    for channel in als.kpn.data_channels():
        endpoints = _endpoint_tiles(mapping, als, channel)
        if endpoints is None:
            continue
        hops = noc.hop_distance(
            platform.tile(endpoints[0]).position, platform.tile(endpoints[1]).position
        )
        communication += channel_energy_nj(channel.bits_per_iteration, hops, model)
    computation = mapping.computation_energy_nj()
    activation = model.tile_activation_energy_nj * len(mapping.used_tiles())
    return computation + communication + activation
