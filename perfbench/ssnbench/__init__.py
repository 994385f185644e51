"""The SSN reproduction's end-to-end benchmark (see ``perfbench/README.md``)."""

from .ensemble import EnsembleCampaign
from .golden import GoldenSingle
from .serve import ServeMix

#: Workload name -> class.
WORKLOADS = {"golden_single": GoldenSingle, "ensemble_campaign": EnsembleCampaign,
             "serve_mix": ServeMix}
