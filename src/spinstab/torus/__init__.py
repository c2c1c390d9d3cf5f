"""Spectral tensor calculus on flat tori T^n = (R / 2 pi Z)^n."""

from .fields import (
    FourierScalarField,
    FourierMetric,
    FourierSymTensor,
    Grid,
    ModeField,
)
