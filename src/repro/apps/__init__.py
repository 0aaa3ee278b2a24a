"""Applications from the paper's evaluation and motivation sections."""

from repro.apps.disseminate import (
    DisseminateNode,
    FilePlan,
    decode_metadata,
    encode_metadata,
)
from repro.apps.prophet import (
    Bundle,
    ProphetNode,
    decode_summary,
    encode_summary,
)
from repro.apps.tourism import (
    LandmarkBeacon,
    TourGuide,
    TouristApp,
    Visualization,
)
from repro.apps.transport import D2DTransport, OmniTransport

__all__ = [
    "Bundle",
    "D2DTransport",
    "DisseminateNode",
    "FilePlan",
    "LandmarkBeacon",
    "OmniTransport",
    "ProphetNode",
    "TourGuide",
    "TouristApp",
    "Visualization",
    "decode_metadata",
    "decode_summary",
    "encode_metadata",
    "encode_summary",
]
