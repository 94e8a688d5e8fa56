"""Center-voting 6D object pose estimation toolkit.

Dense per-pixel center predictions feed a Hough voting layer that localizes
object centers and recovers 3D translations; symmetric-aware rotation losses
and their gradients support rotation analysis; the ADD/ADD-S protocol scores
poses; projective point-to-plane ICP refines them; and a synthetic z-buffer
renderer provides both inputs and ground truth.
"""
