"""CTMC pricing of American-style Parisian options under 1D Markov models."""

from .models import (
    Coordinate,
    JumpMeasure,
    KouParams,
    ModelSpec,
    VGParams,
    bs_model,
    jump_measure_from_density,
    kou_model,
    vg_model,
)
from .pricing import price

__all__ = [
    "Coordinate",
    "JumpMeasure",
    "KouParams",
    "ModelSpec",
    "VGParams",
    "bs_model",
    "jump_measure_from_density",
    "kou_model",
    "price",
    "vg_model",
]

__version__ = "0.1.0"
