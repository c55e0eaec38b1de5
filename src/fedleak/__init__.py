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
    gaussian_entropy,
    gaussian_view_mi,
    knn_cmi,
    knn_mi,
)
from .leakage import (
    ExperimentConfig,
    LeakageReport,
    Proposition1Verdict,
    draw_gradient_samples,
    estimate_mode_leakage,
    run_experiment,
    verify_proposition1,
)
from .protocol import ALL_MODES, Mode, extract_observation, view_matrix
from .topology import (
    Graph,
    WeightMatrix,
    generate_graph,
    graph_density,
    metropolis_weights,
    read_edge_list,
    validate_weight_matrix,
    write_edge_list,
)
