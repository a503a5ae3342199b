"""Undecimated graph framelet transforms, shrinkage, convolution and pooling."""

__version__ = "0.1.0"
