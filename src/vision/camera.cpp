#include "vision/camera.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::vision {

CameraIntrinsics CameraIntrinsics::kinect_like(int width, int height) {
  CIMNAV_REQUIRE(width > 1 && height > 1, "image must be at least 2x2");
  CameraIntrinsics k;
  k.width = width;
  k.height = height;
  // 57 degree horizontal FOV (Kinect v1): fx = (W/2) / tan(HFOV/2).
  const double half_fov = 0.5 * 57.0 * 3.14159265358979323846 / 180.0;
  k.fx = 0.5 * static_cast<double>(width) / std::tan(half_fov);
  k.fy = k.fx;  // square pixels
  k.cx = 0.5 * static_cast<double>(width) - 0.5;
  k.cy = 0.5 * static_cast<double>(height) - 0.5;
  return k;
}

core::Vec3 camera_to_body(const core::Vec3& c) {
  // body x = camera z (forward), body y = -camera x, body z = -camera y.
  return {c.z, -c.x, -c.y};
}

core::Vec3 apply_mount_pitch(const core::Vec3& b, double pitch_rad) {
  // Rotation about the body y axis; positive pitch tips +x toward -z
  // (optical axis looks downward).
  const double cp = std::cos(pitch_rad), sp = std::sin(pitch_rad);
  return {cp * b.x + sp * b.z, b.y, -sp * b.x + cp * b.z};
}

std::optional<DepthPixel> project(const CameraIntrinsics& k,
                                  const core::Vec3& p) {
  if (p.z <= 1e-9) return std::nullopt;
  const double u = k.fx * p.x / p.z + k.cx;
  const double v = k.fy * p.y / p.z + k.cy;
  const int ui = static_cast<int>(std::lround(u));
  const int vi = static_cast<int>(std::lround(v));
  if (ui < 0 || ui >= k.width || vi < 0 || vi >= k.height) return std::nullopt;
  return DepthPixel{ui, vi, p.z};
}

core::Vec3 back_project(const CameraIntrinsics& k, const DepthPixel& px) {
  return {(static_cast<double>(px.u) - k.cx) / k.fx * px.depth_m,
          (static_cast<double>(px.v) - k.cy) / k.fy * px.depth_m, px.depth_m};
}

core::Vec3 pixel_ray(const CameraIntrinsics& k, int u, int v) {
  const core::Vec3 dir{(static_cast<double>(u) - k.cx) / k.fx,
                       (static_cast<double>(v) - k.cy) / k.fy, 1.0};
  return dir.normalized();
}

}  // namespace cimnav::vision
