"""Edge/cloud cost modeling for Table I."""

from .cloud import CloudBaseline
from .comparison import EfficiencyComparison, TableRow
from .device import EdgeDeviceModel
from .runtime import DeploymentReport, EdgeDeploymentSimulator, StepMeter
from .flops import (
    GPT4_KG_GENERATION_FLOPS,
    FlopCounts,
    count_adaptation_step,
    count_gnn_forward,
    count_model_forward,
    count_temporal_forward,
    count_token_side,
)

__all__ = [
    "EdgeDeviceModel",
    "CloudBaseline",
    "EfficiencyComparison",
    "TableRow",
    "FlopCounts",
    "count_gnn_forward",
    "count_temporal_forward",
    "count_token_side",
    "count_model_forward",
    "count_adaptation_step",
    "GPT4_KG_GENERATION_FLOPS",
    "EdgeDeploymentSimulator",
    "DeploymentReport",
    "StepMeter",
]
