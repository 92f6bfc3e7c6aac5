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
    Loss,
    MeanAbsoluteError,
    MeanSquaredError,
    SoftmaxCrossEntropy,
)
from .metrics import accuracy, accuracy_drop, per_class_accuracy
from .network import MLP, build_mlp
from .optimizers import Adam, Optimizer, StackedAdam
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
    "Identity",
    "Layer",
    "LeakyReLU",
    "Loss",
    "MLP",
    "MeanAbsoluteError",
    "MeanSquaredError",
    "Optimizer",
    "ReLU",
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
    "build_mlp",
    "finetune",
    "finetune_population",
    "finetune_stacked",
    "get_activation",
    "get_initializer",
    "load_model",
    "per_class_accuracy",
    "predict_stacked",
    "save_model",
    "supports_stacking",
    "train_classifier",
]
