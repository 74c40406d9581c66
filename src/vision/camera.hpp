// Pinhole depth camera model (Kinect-like) used both to render synthetic
// depth scans and to back-project scan pixels into 3-D for likelihood
// evaluation (paper Sec. II-C: "the scan z of N non-zero depth map pixels
// is projected to 3D via the camera's projection model").
//
// Frames: the *body* frame is x-forward, y-left, z-up (robotics
// convention); the *camera* frame is z-forward, x-right, y-down (vision
// convention). The camera is rigidly mounted looking along body +x.
#pragma once

#include <optional>

#include "core/vec.hpp"

namespace cimnav::vision {

/// Intrinsic parameters of the pinhole camera.
struct CameraIntrinsics {
  int width = 64;
  int height = 48;
  double fx = 55.0;  ///< focal length in pixels
  double fy = 55.0;
  double cx = 31.5;  ///< principal point
  double cy = 23.5;

  /// Kinect-style defaults scaled to a given resolution (57 deg HFOV).
  static CameraIntrinsics kinect_like(int width, int height);
};

/// A pixel with a valid depth reading.
struct DepthPixel {
  int u = 0;
  int v = 0;
  double depth_m = 0.0;  ///< along the camera z axis
};

/// Converts a camera-frame point (x right, y down, z optical axis) to the
/// body frame (x forward, y left, z up).
core::Vec3 camera_to_body(const core::Vec3& camera);

/// Applies the rigid camera-mount pitch (positive pitches the optical axis
/// downward) to a body-frame vector; `unpitch` is the inverse.
core::Vec3 apply_mount_pitch(const core::Vec3& body, double pitch_rad);

/// Projects a camera-frame point; nullopt if behind the camera or outside
/// the image bounds.
std::optional<DepthPixel> project(const CameraIntrinsics& k,
                                  const core::Vec3& camera_point);

/// Back-projects a pixel with depth to a camera-frame 3-D point.
core::Vec3 back_project(const CameraIntrinsics& k, const DepthPixel& px);

/// Unit ray direction (camera frame) through pixel center (u, v).
core::Vec3 pixel_ray(const CameraIntrinsics& k, int u, int v);

}  // namespace cimnav::vision
