/**
 * @file
 * 3-component float vector used throughout the geometry, BVH, and ray
 * generation code. Deliberately a plain aggregate so it can be memcpy'd into
 * simulated memory buffers.
 */

#pragma once

#include <cmath>
#include <ostream>

namespace rtp {

/** A 3D float vector / point. */
struct Vec3
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;

    constexpr Vec3() = default;
    constexpr Vec3(float xv, float yv, float zv) : x(xv), y(yv), z(zv) {}
    constexpr explicit Vec3(float s) : x(s), y(s), z(s) {}

    constexpr Vec3
    operator+(const Vec3 &o) const
    {
        return {x + o.x, y + o.y, z + o.z};
    }

    constexpr Vec3
    operator-(const Vec3 &o) const
    {
        return {x - o.x, y - o.y, z - o.z};
    }

    constexpr Vec3
    operator*(float s) const
    {
        return {x * s, y * s, z * s};
    }

    constexpr Vec3
    operator*(const Vec3 &o) const
    {
        return {x * o.x, y * o.y, z * o.z};
    }

    constexpr Vec3
    operator/(float s) const
    {
        return {x / s, y / s, z / s};
    }

    constexpr Vec3
    operator-() const
    {
        return {-x, -y, -z};
    }

    Vec3 &
    operator+=(const Vec3 &o)
    {
        x += o.x;
        y += o.y;
        z += o.z;
        return *this;
    }

    Vec3 &
    operator-=(const Vec3 &o)
    {
        x -= o.x;
        y -= o.y;
        z -= o.z;
        return *this;
    }

    Vec3 &
    operator*=(float s)
    {
        x *= s;
        y *= s;
        z *= s;
        return *this;
    }

    constexpr bool
    operator==(const Vec3 &o) const
    {
        return x == o.x && y == o.y && z == o.z;
    }

    /** Component access by axis index (0=x, 1=y, 2=z). */
    float
    operator[](int axis) const
    {
        return axis == 0 ? x : (axis == 1 ? y : z);
    }

    float &
    operator[](int axis)
    {
        return axis == 0 ? x : (axis == 1 ? y : z);
    }
};

constexpr Vec3
operator*(float s, const Vec3 &v)
{
    return v * s;
}

/** @return Dot product of @p a and @p b. */
constexpr float
dot(const Vec3 &a, const Vec3 &b)
{
    return a.x * b.x + a.y * b.y + a.z * b.z;
}

/** @return Cross product a × b. */
constexpr Vec3
cross(const Vec3 &a, const Vec3 &b)
{
    return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
            a.x * b.y - a.y * b.x};
}

/** @return Euclidean length of @p v. */
inline float
length(const Vec3 &v)
{
    return std::sqrt(dot(v, v));
}

/** @return Squared length of @p v. */
constexpr float
lengthSquared(const Vec3 &v)
{
    return dot(v, v);
}

/** @return @p v scaled to unit length (undefined for the zero vector). */
inline Vec3
normalize(const Vec3 &v)
{
    return v / length(v);
}

/**
 * fminf as an inline select: a NaN operand yields the other operand,
 * and equal operands, the ±0 tie included, yield @p b as glibc's fminf
 * does (std::fmin leaves that tie unspecified). GCC compiles std::fmin
 * to a libm call, six of which per Aabb::extend dominated BVH builds.
 */
inline float
minNum(float a, float b)
{
    return b != b ? a : (a < b ? a : b);
}

/** Maximum with fmaxf's NaN rule and tie rule; see minNum. */
inline float
maxNum(float a, float b)
{
    return b != b ? a : (a > b ? a : b);
}

/** @return Component-wise minimum (minNum per component). */
inline Vec3
min(const Vec3 &a, const Vec3 &b)
{
    return {minNum(a.x, b.x), minNum(a.y, b.y), minNum(a.z, b.z)};
}

/** @return Component-wise maximum (maxNum per component). */
inline Vec3
max(const Vec3 &a, const Vec3 &b)
{
    return {maxNum(a.x, b.x), maxNum(a.y, b.y), maxNum(a.z, b.z)};
}

/** @return Linear interpolation a + t (b - a). */
constexpr Vec3
lerp(const Vec3 &a, const Vec3 &b, float t)
{
    return a + (b - a) * t;
}

inline std::ostream &
operator<<(std::ostream &os, const Vec3 &v)
{
    return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

} // namespace rtp
