"""tm2net: Turing machines compiled to shifts, unit-square affine maps,
and first-order threshold/ramp networks, cross-checked exactly at every level."""

import types

from .encode import (
    Point,
    Rational,
    decode_left,
    decode_point,
    decode_right,
    encode_config,
    encode_left,
    encode_right,
    parse_rat,
    rat_str,
)
from .gshift import GeneralizedShift, Triple, build_gshift, dump_rules, gs_step, run_gs
from .machine import (
    Config,
    TuringMachine,
    initial_config,
    machine_to_text,
    parse_machine,
    run_tm,
    tape_string,
    tm_step,
)
from .nda import Branch, Nda, Partition, build_nda, build_partition, cell_of_point, derive_branch, nda_step, run_nda
from .network import (
    Network,
    NetState,
    build_network,
    export_network,
    import_network,
    initial_state,
    is_halted,
    net_step,
    run_network,
    unit_count,
)

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
