from .messages import Message, Phase, decode_message, encode_message
from .runner import (
    BuildingAgent,
    InProcessBus,
    ProtocolConfig,
    ProtocolError,
    ProtocolRunner,
    run_protocol,
)
from .sap import PairwiseMaskSet, sap_aggregate, sap_mask
from .te import (
    compute_te_uploads,
    gen_encryption_col,
    solve_sp2_masked,
    te_recover,
)
from .transcript import ProtocolTranscript, RoundView, scan_payloads

__all__ = [
    "Message",
    "Phase",
    "encode_message",
    "decode_message",
    "BuildingAgent",
    "InProcessBus",
    "ProtocolConfig",
    "ProtocolError",
    "ProtocolRunner",
    "run_protocol",
    "PairwiseMaskSet",
    "sap_mask",
    "sap_aggregate",
    "gen_encryption_col",
    "compute_te_uploads",
    "solve_sp2_masked",
    "te_recover",
    "ProtocolTranscript",
    "RoundView",
    "scan_payloads",
]
