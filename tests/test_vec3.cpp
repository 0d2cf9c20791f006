/** @file Unit tests for Vec3. */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <math.h>

#include "geometry/vec3.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

TEST(Vec3, ArithmeticBasics)
{
    Vec3 a{1.0f, 2.0f, 3.0f};
    Vec3 b{4.0f, 5.0f, 6.0f};
    EXPECT_EQ(a + b, Vec3(5.0f, 7.0f, 9.0f));
    EXPECT_EQ(b - a, Vec3(3.0f, 3.0f, 3.0f));
    EXPECT_EQ(a * 2.0f, Vec3(2.0f, 4.0f, 6.0f));
    EXPECT_EQ(2.0f * a, a * 2.0f);
    EXPECT_EQ(a * b, Vec3(4.0f, 10.0f, 18.0f));
    EXPECT_EQ(a / 2.0f, Vec3(0.5f, 1.0f, 1.5f));
    EXPECT_EQ(-a, Vec3(-1.0f, -2.0f, -3.0f));
}

TEST(Vec3, CompoundAssignment)
{
    Vec3 v{1.0f, 1.0f, 1.0f};
    v += Vec3{1.0f, 2.0f, 3.0f};
    EXPECT_EQ(v, Vec3(2.0f, 3.0f, 4.0f));
    v -= Vec3{1.0f, 1.0f, 1.0f};
    EXPECT_EQ(v, Vec3(1.0f, 2.0f, 3.0f));
    v *= 3.0f;
    EXPECT_EQ(v, Vec3(3.0f, 6.0f, 9.0f));
}

TEST(Vec3, IndexAccess)
{
    Vec3 v{7.0f, 8.0f, 9.0f};
    EXPECT_EQ(v[0], 7.0f);
    EXPECT_EQ(v[1], 8.0f);
    EXPECT_EQ(v[2], 9.0f);
    v[1] = 42.0f;
    EXPECT_EQ(v.y, 42.0f);
}

TEST(Vec3, DotAndCross)
{
    Vec3 x{1.0f, 0.0f, 0.0f};
    Vec3 y{0.0f, 1.0f, 0.0f};
    Vec3 z{0.0f, 0.0f, 1.0f};
    EXPECT_EQ(dot(x, y), 0.0f);
    EXPECT_EQ(cross(x, y), z);
    EXPECT_EQ(cross(y, z), x);
    EXPECT_EQ(cross(z, x), y);
    EXPECT_EQ(dot(Vec3(1, 2, 3), Vec3(4, 5, 6)), 32.0f);
}

TEST(Vec3, LengthAndNormalize)
{
    Vec3 v{3.0f, 4.0f, 0.0f};
    EXPECT_FLOAT_EQ(length(v), 5.0f);
    EXPECT_FLOAT_EQ(lengthSquared(v), 25.0f);
    Vec3 n = normalize(v);
    EXPECT_NEAR(length(n), 1.0f, 1e-6f);
    EXPECT_NEAR(n.x, 0.6f, 1e-6f);
}

TEST(Vec3, MinMaxLerp)
{
    Vec3 a{1.0f, 5.0f, 3.0f};
    Vec3 b{2.0f, 4.0f, 6.0f};
    EXPECT_EQ(min(a, b), Vec3(1.0f, 4.0f, 3.0f));
    EXPECT_EQ(max(a, b), Vec3(2.0f, 5.0f, 6.0f));
    EXPECT_EQ(lerp(a, b, 0.0f), a);
    EXPECT_EQ(lerp(a, b, 1.0f), b);
    Vec3 mid = lerp(a, b, 0.5f);
    EXPECT_FLOAT_EQ(mid.x, 1.5f);
}

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

/**
 * min/max must equal libm fminf/fmaxf bit for bit over the special
 * values, in both operand orders, so swapping them in cannot move a
 * BVH box bit. libm is called through volatile pointers: GCC treats
 * the fmin builtin as commutative and may swap its operands.
 */
TEST(Vec3, MinMaxMatchLibmBitForBit)
{
    float (*volatile libm_fmin)(float, float) = &::fminf;
    float (*volatile libm_fmax)(float, float) = &::fmaxf;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min() * 3;
    const float values[] = {0.0f,     -0.0f,    1.0f,    -1.0f,
                            inf,      -inf,     FLT_MAX, -FLT_MAX,
                            FLT_MIN,  -FLT_MIN, denorm,  -denorm,
                            nan,      -nan};
    auto expect_same = [](float got, float want, float a, float b,
                          const char *op) {
        if (std::isnan(a) && std::isnan(b)) {
            EXPECT_TRUE(std::isnan(got) && std::isnan(want))
                << op << "(" << a << ", " << b << ") = " << got;
        } else {
            EXPECT_EQ(floatBits(got), floatBits(want))
                << op << "(" << a << ", " << b << ") = " << got
                << ", libm " << want;
        }
    };
    for (float a : values) {
        for (float b : values) {
            Vec3 lo = min(Vec3{a, b, 0.0f}, Vec3{b, a, 0.0f});
            Vec3 hi = max(Vec3{a, b, 0.0f}, Vec3{b, a, 0.0f});
            expect_same(lo.x, libm_fmin(a, b), a, b, "fmin");
            expect_same(lo.y, libm_fmin(b, a), b, a, "fmin");
            expect_same(hi.x, libm_fmax(a, b), a, b, "fmax");
            expect_same(hi.y, libm_fmax(b, a), b, a, "fmax");
        }
    }
}

TEST(Vec3, CrossIsOrthogonalProperty)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        Vec3 a{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 b{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 c = cross(a, b);
        EXPECT_NEAR(dot(c, a), 0.0f, 1e-3f);
        EXPECT_NEAR(dot(c, b), 0.0f, 1e-3f);
    }
}

TEST(Vec3, TriangleInequalityProperty)
{
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        Vec3 a{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 b{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        EXPECT_LE(length(a + b), length(a) + length(b) + 1e-4f);
    }
}

} // namespace
} // namespace rtp
