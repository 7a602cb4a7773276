"""Learning-based parallel design space exploration (Section 4)."""

from .bandit import AUCBandit, BanditTuner, default_techniques  # noqa: F401
from .cache import (  # noqa: F401
    CacheStore,
    canonical_key,
    kernel_digest,
    point_from_key,
)
from .checkpoint import CheckpointStore  # noqa: F401
from .datuner import DATunerEngine  # noqa: F401
from .engine import S2FAEngine  # noqa: F401
from .exhaustive import (  # noqa: F401
    ExhaustiveResult,
    enumerate_points,
    exhaustive_search,
)
from .evaluator import (  # noqa: F401
    Evaluation,
    Evaluator,
    ExplorationTrace,
    TracePoint,
)
from .opentuner import OpenTunerRuntime  # noqa: F401
from .partition import Partition, build_partitions  # noqa: F401
from .result import DSERun, PartitionReport  # noqa: F401
from .seeds import area_seed, performance_seed, seeds_for  # noqa: F401
from .space import DesignSpace, Parameter, build_space  # noqa: F401
from .stopping import (  # noqa: F401
    EntropyStopping,
    NeverStop,
    NoImprovementStopping,
)
from .vclock import WorkerPool  # noqa: F401
