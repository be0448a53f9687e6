"""swpnet: CPU micro-framework for fine-grained recognition with residual
backbones, spatially-weighted pooling, and binned bounding-box localisation."""

__version__ = "0.1.0"

from .autodiff import GradTape, Tensor, backward, grad_check  # noqa: F401
