// Small fixed-size linear algebra used throughout cimnav: 3-vectors, 3x3
// matrices, and a 4-DoF pose (position + yaw) suitable for insect-scale
// drones whose pitch/roll are stabilized by the attitude controller.
#pragma once

#include <array>
#include <cmath>
#include <iosfwd>

namespace cimnav::core {

/// Column 3-vector of doubles. Plain aggregate: no invariant, public members.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr double& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }
  constexpr double operator[](int i) const {
    return i == 0 ? x : (i == 1 ? y : z);
  }

  constexpr Vec3 operator+(const Vec3& o) const {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-(const Vec3& o) const {
    return {x - o.x, y - o.y, z - o.z};
  }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }

  constexpr double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  constexpr Vec3 cwise_mul(const Vec3& o) const {
    return {x * o.x, y * o.y, z * o.z};
  }
  double norm() const { return std::sqrt(dot(*this)); }
  constexpr double squared_norm() const { return dot(*this); }
  Vec3 normalized() const {
    const double n = norm();
    return n > 0.0 ? *this / n : Vec3{};
  }

  friend constexpr bool operator==(const Vec3&, const Vec3&) = default;
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

std::ostream& operator<<(std::ostream& os, const Vec3& v);

/// Row-major 3x3 matrix.
struct Mat3 {
  std::array<double, 9> m{};  // row-major

  static constexpr Mat3 identity() {
    Mat3 r;
    r.m = {1, 0, 0, 0, 1, 0, 0, 0, 1};
    return r;
  }

  /// Rotation about +Z by `yaw` radians (right-handed).
  static Mat3 rotation_z(double yaw) {
    const double c = std::cos(yaw), s = std::sin(yaw);
    Mat3 r;
    r.m = {c, -s, 0, s, c, 0, 0, 0, 1};
    return r;
  }

  constexpr double operator()(int r, int c) const { return m[3 * r + c]; }
  constexpr double& operator()(int r, int c) { return m[3 * r + c]; }

  Vec3 operator*(const Vec3& v) const {
    return {m[0] * v.x + m[1] * v.y + m[2] * v.z,
            m[3] * v.x + m[4] * v.y + m[5] * v.z,
            m[6] * v.x + m[7] * v.y + m[8] * v.z};
  }

  Mat3 operator*(const Mat3& o) const {
    Mat3 r;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) {
        double s = 0.0;
        for (int k = 0; k < 3; ++k) s += (*this)(i, k) * o(k, j);
        r(i, j) = s;
      }
    return r;
  }

  friend constexpr bool operator==(const Mat3&, const Mat3&) = default;
};

/// Wraps an angle to (-pi, pi].
double wrap_angle(double a);

/// 4-DoF pose: 3-D position plus heading (yaw). Composition follows the
/// usual SE(3) convention restricted to z-axis rotations: `world_point =
/// R_z(yaw) * body_point + position`.
struct Pose {
  Vec3 position;
  double yaw = 0.0;  // radians, wrapped to (-pi, pi]

  Pose() = default;
  Pose(const Vec3& p, double yaw_) : position(p), yaw(wrap_angle(yaw_)) {}

  /// Maps a point from body frame to world frame.
  Vec3 transform(const Vec3& body_point) const {
    return Mat3::rotation_z(yaw) * body_point + position;
  }

  /// Maps a point from world frame into this pose's body frame.
  Vec3 inverse_transform(const Vec3& world_point) const {
    return Mat3::rotation_z(-yaw) * (world_point - position);
  }

  /// Composition: `this` followed by `delta` expressed in this body frame.
  Pose compose(const Pose& delta) const {
    return Pose{transform(delta.position), yaw + delta.yaw};
  }

  /// Relative pose taking `this` to `other`, expressed in this body frame.
  Pose relative_to(const Pose& other) const {
    return Pose{inverse_transform(other.position), other.yaw - yaw};
  }

  /// Euclidean position error to another pose.
  double position_error(const Pose& other) const {
    return (position - other.position).norm();
  }

  /// Absolute heading error (wrapped) to another pose.
  double yaw_error(const Pose& other) const {
    return std::abs(wrap_angle(yaw - other.yaw));
  }
};

std::ostream& operator<<(std::ostream& os, const Pose& p);

/// Linear interpolation.
constexpr double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// Clamps v into [lo, hi].
constexpr double clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace cimnav::core
