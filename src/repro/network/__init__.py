"""NoC substrate: flits, buffers, routers, links, and networks."""

from .buffer import InputVC, OutVC, VCState
from .config import NetworkConfig, RouterConfig, paper_config
from .flit import Flit, FlitType, Packet
from .interface import NetworkInterface
from .links import InterChipLink, LinkConfig, LinkIngress, PartitionConfig
from .network import Network
from .router import OutputPort, Router
from .state import export_flow_state, import_flow_state

__all__ = [
    "Flit",
    "export_flow_state",
    "import_flow_state",
    "FlitType",
    "InputVC",
    "InterChipLink",
    "LinkConfig",
    "LinkIngress",
    "Network",
    "PartitionConfig",
    "NetworkConfig",
    "NetworkInterface",
    "OutVC",
    "OutputPort",
    "Packet",
    "Router",
    "RouterConfig",
    "VCState",
    "paper_config",
]
