"""Query-toxicity models: privileged teacher, distilled query-only student."""

from .checkpoint import (
    load_checkpoint,
    load_student,
    load_teacher,
    model_from_dict,
    model_to_dict,
    save_checkpoint,
)
from .encoder import Encoder, EncoderConfig, sinusoidal_positions
from .losses import LossWeights, total_loss
from .models import PrivilegedConfig, StudentModel, TeacherModel
from .optim import AdamW, warmup_scale
from .rank import RankedKeyword, rank_keywords, ranked_from_csv, write_ranked
from .tokenizer import (
    CLS_ID,
    PAD_ID,
    TokenizerConfig,
    collision_rate,
    tokenize,
    tokenize_batch,
)
from .train import (
    FoldReport,
    LupiDataset,
    LupiExample,
    TrainConfig,
    TrainReport,
    distill_student,
    grid_search_privileged,
    loco_cv,
    privileged_texts,
    train_query_baseline,
    train_teacher,
)

__all__ = [
    "AdamW",
    "CLS_ID",
    "Encoder",
    "EncoderConfig",
    "FoldReport",
    "LossWeights",
    "LupiDataset",
    "LupiExample",
    "PAD_ID",
    "PrivilegedConfig",
    "RankedKeyword",
    "StudentModel",
    "TeacherModel",
    "TokenizerConfig",
    "TrainConfig",
    "TrainReport",
    "collision_rate",
    "distill_student",
    "grid_search_privileged",
    "load_checkpoint",
    "load_student",
    "load_teacher",
    "loco_cv",
    "model_from_dict",
    "model_to_dict",
    "privileged_texts",
    "rank_keywords",
    "ranked_from_csv",
    "save_checkpoint",
    "sinusoidal_positions",
    "tokenize",
    "tokenize_batch",
    "total_loss",
    "train_query_baseline",
    "train_teacher",
    "warmup_scale",
    "write_ranked",
]
