// Generic short-Weierstrass (a = 0) group arithmetic in Jacobian coordinates,
// shared by G1 (over Fp) and G2 (over Fp2, the sextic twist).
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <vector>

#include "field/fp.hpp"

namespace bnr {

/// Curve: provides `using Field`, `static Field coeff_b()`,
/// `static AffinePoint<Curve> generator_affine()`.
template <class Curve>
struct AffinePoint {
  using Field = typename Curve::Field;

  Field x{};
  Field y{};
  bool infinity = true;

  static AffinePoint identity() { return {}; }
  static AffinePoint from_xy(const Field& x, const Field& y) {
    AffinePoint p;
    p.x = x;
    p.y = y;
    p.infinity = false;
    if (!p.on_curve()) throw std::invalid_argument("point not on curve");
    return p;
  }

  bool on_curve() const {
    if (infinity) return true;
    return y.squared() == x.squared() * x + Curve::coeff_b();
  }

  AffinePoint operator-() const {
    AffinePoint p = *this;
    if (!p.infinity) p.y = -p.y;
    return p;
  }

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

template <class Curve>
class JacobianPoint {
 public:
  using Field = typename Curve::Field;
  using Affine = AffinePoint<Curve>;

  JacobianPoint() = default;  // identity (Z = 0)

  static JacobianPoint identity() { return {}; }
  static JacobianPoint generator() {
    return from_affine(Curve::generator_affine());
  }
  static JacobianPoint from_affine(const Affine& a) {
    JacobianPoint p;
    if (a.infinity) return p;
    p.x_ = a.x;
    p.y_ = a.y;
    p.z_ = Field::one();
    return p;
  }

  bool is_identity() const { return z_.is_zero(); }

  Affine to_affine() const {
    if (is_identity()) return Affine::identity();
    Field zinv = z_.inverse();
    Field zinv2 = zinv.squared();
    Affine a;
    a.x = x_ * zinv2;
    a.y = y_ * zinv2 * zinv;
    a.infinity = false;
    return a;
  }

  /// Normalizes many Jacobian points with ONE field inversion (Montgomery's
  /// trick): prefix-multiply the Z coordinates, invert the total, unwind.
  /// Identities pass through as affine identities.
  static std::vector<Affine> batch_to_affine(std::span<const JacobianPoint> pts) {
    std::vector<Affine> out(pts.size());
    std::vector<Field> prefix(pts.size());
    Field acc = Field::one();
    bool any = false;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].is_identity()) continue;
      prefix[i] = acc;          // product of all earlier non-identity Zs
      acc = acc * pts[i].z_;
      any = true;
    }
    if (!any) return out;  // all identities (already default-constructed)
    Field tail_inv = acc.inverse();
    for (size_t i = pts.size(); i-- > 0;) {
      if (pts[i].is_identity()) continue;
      Field zinv = tail_inv * prefix[i];
      tail_inv = tail_inv * pts[i].z_;
      Field zinv2 = zinv.squared();
      out[i].x = pts[i].x_ * zinv2;
      out[i].y = pts[i].y_ * zinv2 * zinv;
      out[i].infinity = false;
    }
    return out;
  }

  JacobianPoint dbl() const {
    if (is_identity()) return *this;
    // dbl-2009-l (a = 0)
    Field a = x_.squared();
    Field b = y_.squared();
    Field c = b.squared();
    Field d = ((x_ + b).squared() - a - c).doubled();
    Field e = a + a + a;
    Field f = e.squared();
    JacobianPoint r;
    r.x_ = f - d - d;
    r.y_ = e * (d - r.x_) - oct(c);
    r.z_ = (y_ * z_).doubled();
    if (r.z_.is_zero()) return identity();
    return r;
  }

  JacobianPoint operator+(const JacobianPoint& o) const {
    if (is_identity()) return o;
    if (o.is_identity()) return *this;
    // add-2007-bl
    Field z1z1 = z_.squared();
    Field z2z2 = o.z_.squared();
    Field u1 = x_ * z2z2;
    Field u2 = o.x_ * z1z1;
    Field s1 = y_ * o.z_ * z2z2;
    Field s2 = o.y_ * z_ * z1z1;
    Field h = u2 - u1;
    Field rr = (s2 - s1).doubled();
    if (h.is_zero()) {
      if (rr.is_zero()) return dbl();
      return identity();
    }
    Field i = h.doubled().squared();
    Field j = h * i;
    Field v = u1 * i;
    JacobianPoint r;
    r.x_ = rr.squared() - j - v - v;
    r.y_ = rr * (v - r.x_) - (s1 * j).doubled();
    r.z_ = ((z_ + o.z_).squared() - z1z1 - z2z2) * h;
    return r;
  }

  JacobianPoint operator+(const Affine& o) const {
    return *this + from_affine(o);
  }
  JacobianPoint operator-() const {
    JacobianPoint p = *this;
    p.y_ = -p.y_;
    return p;
  }
  JacobianPoint operator-(const JacobianPoint& o) const { return *this + (-o); }

  bool operator==(const JacobianPoint& o) const {
    // Compare in the projective sense.
    if (is_identity() || o.is_identity())
      return is_identity() == o.is_identity();
    Field z1z1 = z_.squared();
    Field z2z2 = o.z_.squared();
    return x_ * z2z2 == o.x_ * z1z1 &&
           y_ * o.z_ * z2z2 == o.y_ * z_ * z1z1;
  }

  /// Plain MSB-first double-and-add over the limbs of the (canonical,
  /// non-Montgomery) scalar. Reference path; `mul` uses wNAF when the
  /// scalar is large enough to benefit.
  JacobianPoint mul_binary(std::span<const uint64_t> exp) const {
    JacobianPoint acc;
    bool any = false;
    for (size_t i = exp.size(); i-- > 0;) {
      for (int b = 63; b >= 0; --b) {
        if (any) acc = acc.dbl();
        if ((exp[i] >> b) & 1) {
          acc = acc + *this;
          any = true;
        }
      }
    }
    return acc;
  }

  /// Width-4 wNAF multiplication: ~bits/5 additions instead of ~bits/2
  /// (negation is free on curves, so signed digits halve the table).
  JacobianPoint mul_wnaf(const U256& scalar) const {
    constexpr int kWindow = 4;
    auto digits = wnaf_digits(scalar, kWindow);
    if (digits.empty()) return identity();
    // Odd multiples 1P, 3P, ..., 15P.
    std::array<JacobianPoint, 1 << (kWindow - 1)> table;
    table[0] = *this;
    JacobianPoint twice = dbl();
    for (size_t i = 1; i < table.size(); ++i) table[i] = table[i - 1] + twice;
    JacobianPoint acc;
    for (size_t i = digits.size(); i-- > 0;) {
      acc = acc.dbl();
      int8_t d = digits[i];
      if (d > 0)
        acc = acc + table[(d - 1) / 2];
      else if (d < 0)
        acc = acc + (-table[(-d - 1) / 2]);
    }
    return acc;
  }

  JacobianPoint mul_limbs(std::span<const uint64_t> exp) const {
    if (exp.size() <= 4) {
      U256 s;
      for (size_t i = 0; i < exp.size(); ++i) s.w[i] = exp[i];
      return mul(s);
    }
    return mul_binary(exp);
  }
  JacobianPoint mul(const U256& scalar) const {
    // Small scalars (DKG Horner steps, indices) do not amortize the wNAF
    // table; fall back to the plain ladder.
    if (scalar.bit_length() < 32)
      return mul_binary(std::span<const uint64_t>(scalar.w.data(), 1));
    return mul_wnaf(scalar);
  }
  JacobianPoint mul(const Fr& scalar) const { return mul(scalar.to_u256()); }

  /// Signed digits of `scalar` in width-w NAF form (LSB first); exposed for
  /// tests.
  static std::vector<int8_t> wnaf_digits(U256 k, int window) {
    const uint64_t full = uint64_t(1) << window;
    const uint64_t half = full >> 1;
    std::vector<int8_t> digits;
    while (!k.is_zero()) {
      if (k.is_even()) {
        digits.push_back(0);
      } else {
        uint64_t low = k.w[0] & (full - 1);
        if (low >= half) {
          // Negative digit d = low - 2^w; k -= d  <=>  k += 2^w - low.
          digits.push_back(static_cast<int8_t>(int64_t(low) - int64_t(full)));
          U256 add = U256::from_u64(full - low);
          U256 t;
          U256::add(k, add, t);
          k = t;
        } else {
          digits.push_back(static_cast<int8_t>(low));
          U256 sub = U256::from_u64(low);
          U256 t;
          U256::sub(k, sub, t);
          k = t;
        }
      }
      k = k.shr1();
    }
    return digits;
  }

 private:
  static Field oct(const Field& f) {
    Field t = f.doubled();
    t = t.doubled();
    return t.doubled();
  }

  Field x_{};
  Field y_ = Field::one();
  Field z_{};  // zero => identity
};

/// Naive multi-scalar multiplication: sum_i points[i] * scalars[i]. The
/// oracle `msm` is tested against, and its path for short scalars.
template <class Point>
Point msm_naive(std::span<const Point> points, std::span<const Fr> scalars) {
  if (points.size() != scalars.size())
    throw std::invalid_argument("msm: size mismatch");
  Point acc;
  for (size_t i = 0; i < points.size(); ++i)
    acc = acc + points[i].mul(scalars[i]);
  return acc;
}

/// Interleaved width-4 wNAF multi-scalar multiplication (Straus): each point
/// gets its table of odd multiples, and ONE doubling chain serves all of
/// them, so n points cost ~bits doublings + n*(8 + bits/5) additions
/// instead of n separate multiplications' n*bits doublings. What `msm` runs
/// on long scalars below 32 points, where it beats Pippenger's window
/// buckets — e.g. a flush fold's per-key groups of a few points each.
template <class Point>
Point msm_straus(std::span<const Point> points, std::span<const Fr> scalars) {
  if (points.size() != scalars.size())
    throw std::invalid_argument("msm: size mismatch");
  constexpr int kWindow = 4;
  using Table = std::array<Point, 1 << (kWindow - 1)>;  // P, 3P, ..., 15P
  std::vector<std::vector<int8_t>> digits(points.size());
  std::vector<Table> tables(points.size());
  size_t len = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    digits[i] = Point::wnaf_digits(scalars[i].to_u256(), kWindow);
    len = std::max(len, digits[i].size());
    Table& t = tables[i];
    t[0] = points[i];
    Point twice = points[i].dbl();
    for (size_t j = 1; j < t.size(); ++j) t[j] = t[j - 1] + twice;
  }
  Point acc;
  for (size_t b = len; b-- > 0;) {
    acc = acc.dbl();
    for (size_t i = 0; i < points.size(); ++i) {
      if (b >= digits[i].size()) continue;
      int8_t d = digits[i][b];
      if (d > 0)
        acc = acc + tables[i][(d - 1) / 2];
      else if (d < 0)
        acc = acc + (-tables[i][(-d - 1) / 2]);
    }
  }
  return acc;
}

namespace detail {

/// c-bit digit of k starting at bit `pos` (crossing limb boundaries).
inline uint64_t msm_digit(const U256& k, size_t pos, size_t c) {
  size_t limb = pos / 64, off = pos % 64;
  uint64_t d = k.w[limb] >> off;
  if (off + c > 64 && limb + 1 < 4) d |= k.w[limb + 1] << (64 - off);
  return d & ((uint64_t(1) << c) - 1);
}

inline size_t msm_window_bits(size_t n) {
  if (n < 128) return 4;
  if (n < 512) return 6;
  if (n < 4096) return 8;
  return 11;
}

/// Bucket accumulation of ONE c-bit Pippenger window (no doublings): drops
/// each point into the bucket of its digit at bit position w*c, then folds
/// the buckets with the running-sum trick. Windows touch disjoint state, so
/// the serving layer fans them out across a thread pool and only the final
/// doubling combine stays sequential. `buckets` is caller-provided scratch
/// (resized/reset here) so a serial multi-window loop pays one allocation.
template <class Point>
Point msm_window_sum(std::span<const Point> points, std::span<const U256> ks,
                     size_t w, size_t c, std::vector<Point>& buckets) {
  buckets.assign((size_t(1) << c) - 1, Point::identity());
  for (size_t i = 0; i < points.size(); ++i) {
    uint64_t d = msm_digit(ks[i], w * c, c);
    if (d != 0) buckets[d - 1] = buckets[d - 1] + points[i];
  }
  // sum_d d * bucket[d] via the running-sum trick.
  Point running, sum;
  for (size_t b = buckets.size(); b-- > 0;) {
    running = running + buckets[b];
    sum = sum + running;
  }
  return sum;
}

template <class Point>
Point msm_window_sum(std::span<const Point> points, std::span<const U256> ks,
                     size_t w, size_t c) {
  std::vector<Point> buckets;
  return msm_window_sum(points, ks, w, c, buckets);
}

}  // namespace detail

/// Multi-scalar multiplication sum_i points[i] * scalars[i] via Pippenger
/// bucket accumulation: per c-bit window, drop each point into the bucket of
/// its digit, then fold the buckets with a running sum — O(bits/c * (n + 2^c))
/// additions instead of O(n * bits) doublings. Windows above the largest
/// scalar's bit length are skipped, so short (e.g. 128-bit batch-RLC)
/// coefficients cost proportionally less.
template <class Point>
Point msm(std::span<const Point> points, std::span<const Fr> scalars) {
  if (points.size() != scalars.size())
    throw std::invalid_argument("msm: size mismatch");
  const size_t n = points.size();
  std::vector<U256> ks(n);
  size_t max_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    ks[i] = scalars[i].to_u256();
    max_bits = std::max(max_bits, ks[i].bit_length());
  }
  if (max_bits == 0) return Point::identity();
  // Below 32 points interleaving beats the buckets, but its per-point tables
  // pay off only on long scalars: short ones (DKG's powers x^l) take each
  // point's plain ladder, as `mul` does.
  if (n < 32)
    return max_bits < 32 ? msm_naive(points, scalars)
                         : msm_straus(points, scalars);

  const size_t c = detail::msm_window_bits(n);
  const size_t windows = (max_bits + c - 1) / c;
  std::vector<Point> buckets;  // scratch shared across windows
  Point result;
  for (size_t w = windows; w-- > 0;) {
    for (size_t s = 0; s < c; ++s) result = result.dbl();
    result = result + detail::msm_window_sum(points, std::span<const U256>(ks),
                                             w, c, buckets);
  }
  return result;
}

/// batch_to_affine as a free function, matching the msm call style.
template <class Curve>
std::vector<AffinePoint<Curve>> batch_to_affine(
    std::span<const JacobianPoint<Curve>> pts) {
  return JacobianPoint<Curve>::batch_to_affine(pts);
}

}  // namespace bnr
