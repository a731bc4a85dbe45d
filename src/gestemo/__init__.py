"""Event-camera gesture and emotion recognition at desk scale.

The pipeline: ingest or synthesize event streams and per-frame features,
align label tags to event timestamps, encode fixed-count dense spike
planes, and classify with a two-branch model (spiking convolutional stack
plus an LSTM over frame features, fused additively).
"""

from .align import (
    SearchTrace,
    find_position,
    segment_events,
    split_indices,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .dataio import (
    DEFAULT_FRAME_LIMIT,
    FrameFeatureSequence,
    ManifestEntry,
    SplitManifest,
    load_sample,
    read_events_file,
    read_feature_file,
    read_manifest,
    read_planes_file,
    read_tags_file,
    write_events_file,
    write_feature_file,
    write_manifest,
    write_planes_file,
)
from .encode import (
    DenseSpikePlanes,
    dense_spike_planes,
    downsample_planes,
    group_sizes,
    scale_planes,
)
from .errors import GestemoError
from .events import (
    DAVIS346,
    LABELED_GESTURES,
    EmotionClass,
    EventStream,
    Geometry,
    GestureClass,
    SampleRecord,
    StreamSpec,
    emotion_of,
    synth_stream,
)
from .fusion import (
    FusionConfig,
    HeadParams,
    RecurrentParams,
    fuse,
    head_forward,
    init_head_params,
    init_recurrent_params,
    predict,
    recurrent_forward,
)
from .snn import (
    Conv,
    Dense,
    LifConfig,
    Pool,
    SnnArchitecture,
    default_architecture,
    init_params,
    lif_step,
    mse_spike_loss,
    snn_backward,
    snn_forward,
)
from .stats import ClassStats, FiveNumber, dataset_stats
from .synth import DatasetSpec, build_dataset, synth_features
from .training import (
    AdamState,
    MetricsReport,
    ModelParams,
    TrainConfig,
    TrainData,
    adam_update,
    class_weights,
    confusion_matrix,
    evaluate,
    init_model,
    prepare_tensors,
    train,
    weighted_cross_entropy,
)

__version__ = "0.1.0"
