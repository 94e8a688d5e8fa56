"""Center-voting 6D object pose estimation toolkit.

Dense per-pixel center predictions feed a Hough voting layer that localizes
object centers and recovers 3D translations; symmetric-aware rotation losses
and their gradients support rotation analysis; the ADD/ADD-S protocol scores
poses; projective point-to-plane ICP refines them; and a synthetic z-buffer
renderer provides both inputs and ground truth.
"""

from .fields import CenterField, DepthMap, FieldError, LabelMap
from .geometry import (CameraIntrinsics, GeometryError, ObjectModel, Pose,
                       backproject_center, model_diameter, project,
                       quat_to_rotation, rotation_angle_between)
from .losses import (LossKind, LossResult, loss_gradient_check,
                     optimize_rotation, ploss, sloss)
from .metrics import (AccuracyCurve, accuracy_curve, add, add_s, auc,
                      is_correct, pose_scores, reprojection_error)
from .ply import load_model, load_ply, save_ply
from .refine import IcpError, IcpParams, RefineResult, icp_refine, multi_hypothesis_refine
from .synth import (NoiseSpec, RangeImage, Scene, SynthError, default_registry,
                    ground_truth_fields, make_primitive_model, perturb,
                    random_scene)
from .voting import (Detection, VoteGrid, VotingError, cast_votes,
                     collect_inliers, detect, estimate_translation, find_centers)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
