from .loss import build_geometry, penalty_loss, gradient, penalty_loss_and_grad
from .model import HCLNet, NaiveNet, output_to_matrix
from .train import TrainHyper, TrainResult, TrainingDiverged, train

__all__ = [
    "HCLNet", "NaiveNet", "output_to_matrix",
    "build_geometry", "penalty_loss", "gradient", "penalty_loss_and_grad",
    "TrainHyper", "TrainResult", "TrainingDiverged", "train",
]
