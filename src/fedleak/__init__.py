"""fedleak: how much do federated-learning topologies leak?

Simulates centralized and decentralized gradient sharing, with and
without secure aggregation, and quantifies what a passive adversary
learns about honest nodes' gradients -- via closed-form Gaussian mutual
information, a kNN estimator, and a toy gradient-inversion attack.
"""

__version__ = "0.1.0"

from .attack import (
    AttackResult,
    ToyImage,
    ToyModel,
    attack_experiment,
    invert_gradient,
    make_blob_dataset,
    ssim,
    toy_gradient,
)
from .infotheory import (
    MIEstimate,
    SampleMatrix,
    gaussian_view_mi,
    knn_cmi,
    knn_mi,
)
from .leakage import (
    ExperimentConfig,
    LeakageReport,
    draw_gradient_samples,
    run_experiment,
    verify_proposition1,
)
from .protocol import ALL_MODES, Mode, extract_observation, view_matrix
from .topology import (
    Graph,
    WeightMatrix,
    generate_graph,
    metropolis_weights,
    read_edge_list,
    write_edge_list,
)
