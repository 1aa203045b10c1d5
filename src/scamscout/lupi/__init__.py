"""Query-toxicity models: privileged teacher, distilled query-only student."""

from .checkpoint import (
    checkpoint_header,
    load_student,
    load_teacher,
    model_from_checkpoint,
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
    tokenize,
    tokenize_batch,
)
from .train import (
    FoldReport,
    LupiDataset,
    LupiExample,
    TrainConfig,
    TrainReport,
    assemble,
    distill_student,
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
    "assemble",
    "checkpoint_header",
    "distill_student",
    "load_student",
    "load_teacher",
    "loco_cv",
    "model_from_checkpoint",
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
