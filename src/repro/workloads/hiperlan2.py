"""The HiperLAN/2 receiver case study of the paper (section 4).

This module encodes the worked example end to end:

* :func:`build_receiver_kpn` — the KPN of Figure 1 (with the last three
  processes grouped into ``remainder``, as in the paper);
* :func:`build_implementation_library` — the ARM and Montium implementations
  of Table 1, including the mode-dependent demapper output size ``b``;
* :func:`build_mpsoc` — the hypothetical 3x3-mesh MPSoC of Figure 2 with two
  ARMs, two Montiums, the A/D source, the Sink and three unused tiles;
* :func:`build_receiver_als` — the application-level specification with the
  4 us per-OFDM-symbol throughput constraint;
* :func:`paper_table1` — the rows of Table 1 exactly as printed, for the
  table-reproduction benchmark.

A note on coordinates: Figure 2 is a drawing whose exact tile coordinates are
not recoverable from the paper text.  The placement chosen here preserves the
figure's content (tile counts and types) and reproduces the Table 2 cost
trajectory 11 -> 11 -> 9 -> 7 exactly under the paper's cost metric (the sum
of Manhattan distances of all data channels).
"""

from __future__ import annotations

from repro.appmodel.implementation import DEFAULT_PORT, Implementation
from repro.appmodel.library import ImplementationLibrary
from repro.appmodel.parser import parse_phase_notation
from repro.csdf.phase import PhaseVector
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.channel import Channel
from repro.kpn.graph import KPNGraph
from repro.kpn.process import Process, ProcessKind
from repro.kpn.qos import QoSConstraints
from repro.platform.builder import PlatformBuilder
from repro.platform.platform import Platform
from repro.units import us_to_ns

#: Samples (32-bit complex numbers) per OFDM symbol at the receiver input.
SAMPLES_PER_SYMBOL = 80
#: Samples per symbol after cyclic-prefix removal.
SAMPLES_AFTER_PREFIX = 64
#: Data subcarriers per OFDM symbol (input of equalisation/demapping).
DATA_SUBCARRIERS = 52
#: One OFDM symbol arrives every 4 microseconds.
SYMBOL_PERIOD_NS = us_to_ns(4.0)
#: Size of one stream token (a 32-bit complex sample / word).
TOKEN_SIZE_BITS = 32

#: The seven HiperLAN/2 link-speed modes: coded bits carried per sample by the
#: demapper output, from BPSK rate 1/2 (2 bits) up to 64-QAM rate 3/4
#: (64 bits), as described in section 4.1 of the paper.
HIPERLAN2_MODES: dict[str, int] = {
    "BPSK12": 2,
    "BPSK34": 3,
    "QPSK12": 4,
    "QPSK34": 6,
    "QAM16_916": 9,
    "QAM16_34": 12,
    "QAM64_34": 64,
}

#: Mode used by default throughout the examples and benchmarks.
DEFAULT_MODE = "QPSK34"

#: Tile positions on the 3x3 mesh (see the module docstring for how these
#: were fixed).  The three unlabeled tiles of Figure 2 sit on the remaining
#: routers.
TILE_POSITIONS: dict[str, tuple[int, int]] = {
    "arm1": (0, 0),
    "montium2": (1, 0),
    "arm2": (0, 1),
    "adc": (2, 1),
    "sink": (0, 2),
    "montium1": (1, 2),
    "unused1": (2, 0),
    "unused2": (1, 1),
    "unused3": (2, 2),
}

#: Names of the data processes, in pipeline order.
PROCESS_NAMES = (
    "prefix_removal",
    "freq_offset_correction",
    "inverse_ofdm",
    "remainder",
)


def output_tokens_for_mode(mode: str = DEFAULT_MODE) -> int:
    """Demapper output size ``b`` in 32-bit tokens per OFDM symbol for a mode.

    48 data-carrying samples per symbol, each contributing the mode's coded
    bits; the result is rounded up to whole 32-bit tokens.  The paper's range
    (12 bytes for BPSK to 384 bytes for 64-QAM) corresponds to b = 3 ... 96.
    """
    try:
        bits_per_sample = HIPERLAN2_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown HiperLAN/2 mode {mode!r}; known modes: {sorted(HIPERLAN2_MODES)}"
        ) from None
    total_bits = 48 * bits_per_sample
    return max(1, -(-total_bits // TOKEN_SIZE_BITS))


def build_receiver_kpn(
    mode: str = DEFAULT_MODE, *, include_control: bool = True, name: str = "hiperlan2_rx"
) -> KPNGraph:
    """The KPN of Figure 1, with the last three processes grouped as ``remainder``."""
    b = output_tokens_for_mode(mode)
    kpn = KPNGraph(name)
    kpn.add_process(Process("adc", ProcessKind.SOURCE, pinned_tile="adc",
                            description="A/D converter delivering one OFDM symbol per 4 us"))
    kpn.add_process(Process("prefix_removal", description="cyclic-prefix removal"))
    kpn.add_process(Process("freq_offset_correction", description="frequency-offset correction"))
    kpn.add_process(Process("inverse_ofdm", description="inverse OFDM (FFT)"))
    kpn.add_process(
        Process(
            "remainder",
            description="equalisation + phase-offset correction + demapping (grouped)",
        )
    )
    kpn.add_process(Process("sink", ProcessKind.SINK, pinned_tile="sink",
                            description="consumer of the receiver output stream"))
    if include_control:
        kpn.add_process(Process("ctrl", ProcessKind.CONTROL,
                                description="per-frame control (demapping mode selection)"))

    kpn.add_channel(Channel("c_adc_pfx", "adc", "prefix_removal",
                            tokens_per_iteration=SAMPLES_PER_SYMBOL,
                            token_size_bits=TOKEN_SIZE_BITS))
    kpn.add_channel(Channel("c_pfx_frq", "prefix_removal", "freq_offset_correction",
                            tokens_per_iteration=SAMPLES_AFTER_PREFIX,
                            token_size_bits=TOKEN_SIZE_BITS))
    kpn.add_channel(Channel("c_frq_iofdm", "freq_offset_correction", "inverse_ofdm",
                            tokens_per_iteration=SAMPLES_AFTER_PREFIX,
                            token_size_bits=TOKEN_SIZE_BITS))
    kpn.add_channel(Channel("c_iofdm_rem", "inverse_ofdm", "remainder",
                            tokens_per_iteration=DATA_SUBCARRIERS,
                            token_size_bits=TOKEN_SIZE_BITS))
    kpn.add_channel(Channel("c_rem_sink", "remainder", "sink",
                            tokens_per_iteration=b,
                            token_size_bits=TOKEN_SIZE_BITS))
    if include_control:
        kpn.add_channel(Channel("c_ctrl_rem", "ctrl", "remainder",
                                tokens_per_iteration=1,
                                token_size_bits=TOKEN_SIZE_BITS,
                                is_control=True))
    return kpn


def build_receiver_als(
    mode: str = DEFAULT_MODE,
    *,
    period_ns: float = SYMBOL_PERIOD_NS,
    max_latency_ns: float | None = None,
    include_control: bool = True,
) -> ApplicationLevelSpec:
    """The Application Level Specification: Figure 1 plus the 4 us QoS constraint."""
    kpn = build_receiver_kpn(mode, include_control=include_control)
    qos = QoSConstraints(period_ns=period_ns, max_latency_ns=max_latency_ns)
    return ApplicationLevelSpec(kpn=kpn, qos=qos, metadata={"mode": mode})


# --------------------------------------------------------------------------- #
# Table 1 — implementations
# --------------------------------------------------------------------------- #
def _implementation(
    process: str,
    tile_type: str,
    input_spec: str,
    output_spec: str,
    wcet_spec: str,
    energy_nj: float,
    memory_bytes: int,
    variables: dict[str, float],
) -> Implementation:
    """Build one Table-1 implementation from the paper's phase notation."""
    return Implementation(
        process=process,
        tile_type=tile_type,
        wcet_cycles=PhaseVector(parse_phase_notation(wcet_spec, variables)),
        input_rates={DEFAULT_PORT: PhaseVector(parse_phase_notation(input_spec, variables))},
        output_rates={DEFAULT_PORT: PhaseVector(parse_phase_notation(output_spec, variables))},
        energy_nj_per_iteration=energy_nj,
        memory_bytes=memory_bytes,
        metadata={
            "paper_input": input_spec,
            "paper_output": output_spec,
            "paper_wcet": wcet_spec,
        },
    )


def build_implementation_library(mode: str = DEFAULT_MODE) -> ImplementationLibrary:
    """The implementation library of Table 1.

    The phase signatures follow the paper.  Two adjustments keep the
    *executable* model rate-consistent (the printed table has small
    inconsistencies that only matter when actually simulating the graph; the
    printed strings are preserved verbatim in :func:`paper_table1`):

    * the ARM inverse-OFDM implementation produces 52 tokens per cycle (the
      number the grouped ``remainder`` consumes), not 64;
    * the ARM ``remainder`` implementation reads its 52 data tokens on the
      data channel only (the ``b`` tokens the paper lists on its input refer
      to the control stream, which is not part of the mapped data path).

    Memory footprints are not given in the paper; representative values are
    used so that the adherence checks exercise the memory budget without ever
    dominating the example.
    """
    b = float(output_tokens_for_mode(mode))
    variables = {"b": b}
    library = ImplementationLibrary()

    library.add(_implementation(
        "prefix_removal", "ARM",
        "<8^2, (8,0)^8>", "<0^2, (0,8)^8>", "<1^18>",
        energy_nj=60.0, memory_bytes=4096, variables=variables))
    library.add(_implementation(
        "prefix_removal", "MONTIUM",
        "<1^80, 0>", "<0^17, 1^64>", "<1^81>",
        energy_nj=32.0, memory_bytes=2048, variables=variables))

    library.add(_implementation(
        "freq_offset_correction", "ARM",
        "<8, 0, 0>", "<0, 0, 8>", "<18, 32, 18>",
        energy_nj=62.0, memory_bytes=4096, variables=variables))
    library.add(_implementation(
        "freq_offset_correction", "MONTIUM",
        "<1^64, 0^2>", "<0^2, 1^64>", "<1^66>",
        energy_nj=33.0, memory_bytes=2048, variables=variables))

    library.add(_implementation(
        "inverse_ofdm", "ARM",
        "<64, 0, 0>", "<0, 0, 52>", "<66, 4250, 54>",
        energy_nj=275.0, memory_bytes=16384, variables=variables))
    library.add(_implementation(
        "inverse_ofdm", "MONTIUM",
        "<1^64, 0^53>", "<0^65, 1^52>", "<1^64, 170, 1^52>",
        energy_nj=143.0, memory_bytes=8192, variables=variables))

    library.add(_implementation(
        "remainder", "ARM",
        "<52, 0, 0>", "<0, 0, b>", "<54, 2250, b+2>",
        energy_nj=140.0, memory_bytes=16384, variables=variables))
    # The paper's middle-phase WCET "73-b" becomes non-positive for the two
    # fastest modes (b > 72); clamp it to one clock cycle there.
    middle_wcet = max(73.0 - b, 1.0)
    library.add(_implementation(
        "remainder", "MONTIUM",
        f"<1^52, 0^{int(b) + 1}>", f"<0^53, 1^{int(b)}>", f"<1^52, {middle_wcet:g}, 1^b>",
        energy_nj=76.0, memory_bytes=8192, variables=variables))
    return library


def paper_table1() -> list[dict[str, str | float]]:
    """Table 1 exactly as printed in the paper (strings kept verbatim).

    Each row has the process, the processing-element type, the input, output
    and WCET phase notations and the average energy in nJ per symbol.
    """
    return [
        {"process": "Prefix removal", "pe_type": "ARM",
         "input": "<8^2, (8,0)^8>", "output": "<0^2, (0,8)^8>", "wcet": "<1^18>", "energy_nj": 60},
        {"process": "Prefix removal", "pe_type": "MONTIUM",
         "input": "<1^80, 0>", "output": "<0^17, 1^64>", "wcet": "<1^81>", "energy_nj": 32},
        {"process": "Freq. off. correction", "pe_type": "ARM",
         "input": "<8, 0, 0>", "output": "<0, 0, 8>", "wcet": "<18, 32, 18>", "energy_nj": 62},
        {"process": "Freq. off. correction", "pe_type": "MONTIUM",
         "input": "<1^64, 0^2>", "output": "<0^2, 1^64>", "wcet": "<1^66>", "energy_nj": 33},
        {"process": "Inverse OFDM", "pe_type": "ARM",
         "input": "<64, 0, 0>", "output": "<0, 0, 64>", "wcet": "<66, 4250, 54>", "energy_nj": 275},
        {"process": "Inverse OFDM", "pe_type": "MONTIUM",
         "input": "<1^64, 0^53>", "output": "<0^65, 1^52>", "wcet": "<1^64, 170, 1^52>",
         "energy_nj": 143},
        {"process": "Remainder", "pe_type": "ARM",
         "input": "<52, 0, b>", "output": "<0, 0, b>", "wcet": "<54, 2250, b+2>", "energy_nj": 140},
        {"process": "Remainder", "pe_type": "MONTIUM",
         "input": "<1^52, 0, 0>", "output": "<0, 0, 1^b>", "wcet": "<1^52, 73-b, 1^b>",
         "energy_nj": 76},
    ]


# --------------------------------------------------------------------------- #
# Figure 2 — the hypothetical MPSoC
# --------------------------------------------------------------------------- #
def build_mpsoc(
    *,
    arm_frequency_mhz: float = 200.0,
    montium_frequency_mhz: float = 100.0,
    noc_frequency_mhz: float = 100.0,
    link_capacity_bits_per_s: float = 2e9,
    arm_memory_bytes: int = 256 * 1024,
    montium_memory_bytes: int = 64 * 1024,
) -> Platform:
    """The 3x3-mesh MPSoC of Figure 2: two ARMs, two Montiums, A/D, Sink, 3 unused tiles.

    The paper gives the WCETs of Table 1 in clock cycles but no tile clock
    frequencies (only the mapper host runs at 100 MHz).  The defaults here —
    200 MHz ARMs, 100 MHz Montiums, 100 MHz NoC — make the paper's final
    mapping feasible under the 4 us symbol period while keeping the ARM
    implementations of the two heavy kernels (inverse OFDM, remainder)
    infeasible, which matches the narrative of the worked example.
    """
    builder = (
        PlatformBuilder("hiperlan2_mpsoc")
        .mesh(
            3,
            3,
            link_capacity_bits_per_s=link_capacity_bits_per_s,
            router_latency_cycles=4,
            router_frequency_mhz=noc_frequency_mhz,
        )
        .tile_type("ARM", frequency_mhz=arm_frequency_mhz, idle_power_mw=15.0,
                   description="ARM926 with caches")
        .tile_type("MONTIUM", frequency_mhz=montium_frequency_mhz, idle_power_mw=5.0,
                   description="coarse-grained reconfigurable Montium core")
        .tile_type("IO", frequency_mhz=noc_frequency_mhz, is_processing=False,
                   description="I/O front-end (A/D converter or stream sink)")
        .tile_type("OTHER", frequency_mhz=noc_frequency_mhz,
                   description="tile type not relevant to the example")
    )
    builder.tile("arm1", "ARM", TILE_POSITIONS["arm1"], memory_bytes=arm_memory_bytes)
    builder.tile("arm2", "ARM", TILE_POSITIONS["arm2"], memory_bytes=arm_memory_bytes)
    builder.tile("montium1", "MONTIUM", TILE_POSITIONS["montium1"],
                 memory_bytes=montium_memory_bytes)
    builder.tile("montium2", "MONTIUM", TILE_POSITIONS["montium2"],
                 memory_bytes=montium_memory_bytes)
    builder.tile("adc", "IO", TILE_POSITIONS["adc"])
    builder.tile("sink", "IO", TILE_POSITIONS["sink"])
    builder.tile("unused1", "OTHER", TILE_POSITIONS["unused1"])
    builder.tile("unused2", "OTHER", TILE_POSITIONS["unused2"])
    builder.tile("unused3", "OTHER", TILE_POSITIONS["unused3"])
    return builder.build()


def build_case_study(mode: str = DEFAULT_MODE) -> tuple[ApplicationLevelSpec, Platform, ImplementationLibrary]:
    """Convenience bundle: the ALS, the MPSoC and the implementation library."""
    return build_receiver_als(mode), build_mpsoc(), build_implementation_library(mode)
