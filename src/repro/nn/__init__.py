"""NumPy MLP training substrate.

This package replaces the Keras/QKeras training stack of the original paper
with a small, dependency-free framework: layers, activations, losses,
optimizers, a mini-batch trainer and model (de)serialization. See
``DESIGN.md`` section 3 for how it fits into the reproduction.
"""

from .activations import (
    Activation,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    available_activations,
    get_activation,
)
from .initializers import available_initializers, get_initializer
from .layers import ActivationLayer, Dense, Dropout, Layer
from .losses import (
    CategoricalCrossEntropy,
    HingeLoss,
    Loss,
    MeanAbsoluteError,
    MeanSquaredError,
    SoftmaxCrossEntropy,
    available_losses,
    get_loss,
)
from .metrics import (
    accuracy,
    accuracy_drop,
    confusion_matrix,
    per_class_accuracy,
    precision_recall_f1,
    top_k_accuracy,
)
from .network import MLP, build_mlp
from .optimizers import (
    SGD,
    Adam,
    Optimizer,
    RMSProp,
    StackedAdam,
    available_optimizers,
    get_optimizer,
)
from .serialization import load_model, save_model
from .stacked import (
    StackedTrainer,
    finetune_population,
    finetune_stacked,
    predict_stacked,
    supports_stacking,
)
from .trainer import (
    Trainer,
    TrainerConfig,
    TrainingHistory,
    finetune,
    train_classifier,
)

__all__ = [
    "Activation",
    "ActivationLayer",
    "Adam",
    "CategoricalCrossEntropy",
    "Dense",
    "Dropout",
    "HingeLoss",
    "Identity",
    "Layer",
    "LeakyReLU",
    "Loss",
    "MLP",
    "MeanAbsoluteError",
    "MeanSquaredError",
    "Optimizer",
    "RMSProp",
    "ReLU",
    "SGD",
    "Sigmoid",
    "Softmax",
    "SoftmaxCrossEntropy",
    "StackedAdam",
    "StackedTrainer",
    "Tanh",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "accuracy",
    "accuracy_drop",
    "available_activations",
    "available_initializers",
    "available_losses",
    "available_optimizers",
    "build_mlp",
    "confusion_matrix",
    "finetune",
    "finetune_population",
    "finetune_stacked",
    "get_activation",
    "get_initializer",
    "get_loss",
    "get_optimizer",
    "load_model",
    "per_class_accuracy",
    "precision_recall_f1",
    "predict_stacked",
    "save_model",
    "supports_stacking",
    "top_k_accuracy",
    "train_classifier",
]
