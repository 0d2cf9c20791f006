/** @file Ray file serialization tests. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "rays/rayfile.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

RayBatch
makeBatch(int n)
{
    Rng rng(55);
    RayBatch b;
    b.primaryRays = 100;
    b.primaryHits = 90;
    for (int i = 0; i < n; ++i) {
        Ray r;
        r.origin = {rng.nextRange(-10, 10), rng.nextRange(-10, 10),
                    rng.nextRange(-10, 10)};
        r.dir = {rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                 rng.nextRange(-1, 1)};
        r.tMin = rng.nextRange(0, 0.1f);
        r.tMax = rng.nextRange(1, 50);
        r.kind = i % 3 == 0 ? RayKind::Occlusion
                            : (i % 3 == 1 ? RayKind::Primary
                                          : RayKind::Secondary);
        b.rays.push_back(r);
    }
    return b;
}

TEST(RayFile, RoundTrip)
{
    std::string path = "/tmp/rtp_test.rays";
    RayBatch out = makeBatch(137);
    ASSERT_TRUE(saveRayFile(path, out));

    RayBatch in;
    ASSERT_TRUE(loadRayFile(path, in));
    ASSERT_EQ(in.rays.size(), out.rays.size());
    EXPECT_EQ(in.primaryRays, out.primaryRays);
    EXPECT_EQ(in.primaryHits, out.primaryHits);
    for (std::size_t i = 0; i < out.rays.size(); ++i) {
        EXPECT_EQ(in.rays[i].origin, out.rays[i].origin);
        EXPECT_EQ(in.rays[i].dir, out.rays[i].dir);
        EXPECT_EQ(in.rays[i].tMin, out.rays[i].tMin);
        EXPECT_EQ(in.rays[i].tMax, out.rays[i].tMax);
        EXPECT_EQ(in.rays[i].kind, out.rays[i].kind);
    }
    std::remove(path.c_str());
}

TEST(RayFile, EmptyBatch)
{
    std::string path = "/tmp/rtp_test_empty.rays";
    RayBatch out;
    ASSERT_TRUE(saveRayFile(path, out));
    RayBatch in;
    ASSERT_TRUE(loadRayFile(path, in));
    EXPECT_TRUE(in.rays.empty());
    std::remove(path.c_str());
}

TEST(RayFile, MissingFileFails)
{
    RayBatch in;
    EXPECT_FALSE(loadRayFile("/tmp/definitely_not_here.rays", in));
}

TEST(RayFile, BadMagicRejected)
{
    std::string path = "/tmp/rtp_test_bad.rays";
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOT A RAY FILE AT ALL, JUST BYTES.............";
    }
    RayBatch in;
    EXPECT_FALSE(loadRayFile(path, in));
    std::remove(path.c_str());
}

TEST(RayFile, TruncatedFileRejected)
{
    std::string path = "/tmp/rtp_test_trunc.rays";
    RayBatch out = makeBatch(10);
    ASSERT_TRUE(saveRayFile(path, out));
    // Truncate mid-record.
    {
        std::ifstream f(path, std::ios::binary);
        std::string all((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
        std::ofstream g(path, std::ios::binary | std::ios::trunc);
        g.write(all.data(),
                static_cast<std::streamsize>(all.size() - 20));
    }
    RayBatch in;
    EXPECT_FALSE(loadRayFile(path, in));
    std::remove(path.c_str());
}

/**
 * Save a one-ray batch, then overwrite bytes of the file: @p patch
 * gets the file's bytes and edits them in place. The header is 32
 * bytes (magic, count, primary rays, primary hits); the record
 * follows as origin, direction, tMin, tMax (floats) and the kind byte.
 */
template <class Patch>
std::string
patchedFile(const std::string &name, Patch patch)
{
    std::string path = "/tmp/rtp_test_" + name + ".rays";
    RayBatch out = makeBatch(1);
    out.rays[0].kind = RayKind::Primary;
    EXPECT_TRUE(saveRayFile(path, out));
    std::string all;
    {
        std::ifstream f(path, std::ios::binary);
        all.assign(std::istreambuf_iterator<char>(f),
                   std::istreambuf_iterator<char>());
    }
    patch(all);
    std::ofstream g(path, std::ios::binary | std::ios::trunc);
    g.write(all.data(), static_cast<std::streamsize>(all.size()));
    return path;
}

constexpr std::size_t kRecord = 32; //!< offset of the first record

/** Overwrite float @p field (0..7) of the first record with @p v. */
void
setField(std::string &bytes, int field, float v)
{
    std::memcpy(&bytes[kRecord + 4 * field], &v, sizeof(v));
}

/** The load fails, naming the ray and containing @p reason. */
void
expectRejected(const std::string &path, const std::string &reason)
{
    RayBatch in;
    std::string why;
    EXPECT_FALSE(loadRayFile(path, in, &why));
    EXPECT_NE(why.find(reason), std::string::npos) << why;
    std::remove(path.c_str());
}

TEST(RayFile, CountBeyondTheFileRejectedBeforeReserving)
{
    // A count of 2^60 rays would ask reserve() for exabytes.
    std::string path = patchedFile("count", [](std::string &b) {
        std::uint64_t huge = 1ull << 60;
        std::memcpy(&b[8], &huge, sizeof(huge));
    });
    expectRejected(path, "header claims 1152921504606846976 rays");
}

TEST(RayFile, UnknownKindRejected)
{
    std::string path = patchedFile(
        "kind", [](std::string &b) { b[kRecord + 32] = 3; });
    expectRejected(path, "ray 0: unknown ray kind");
}

TEST(RayFile, NonFiniteOriginRejected)
{
    std::string path = patchedFile("origin", [](std::string &b) {
        setField(b, 1, std::numeric_limits<float>::quiet_NaN());
    });
    expectRejected(path, "ray 0: origin is not finite");
}

TEST(RayFile, NonFiniteDirectionRejected)
{
    std::string path = patchedFile("dir", [](std::string &b) {
        setField(b, 5, std::numeric_limits<float>::infinity());
    });
    expectRejected(path, "ray 0: direction is not finite");
}

TEST(RayFile, ZeroDirectionRejected)
{
    std::string path = patchedFile("zero", [](std::string &b) {
        for (int f = 3; f < 6; ++f)
            setField(b, f, 0.0f);
    });
    expectRejected(path, "ray 0: direction is zero");
}

TEST(RayFile, NanIntervalRejected)
{
    std::string path = patchedFile("nan_tmax", [](std::string &b) {
        setField(b, 7, std::numeric_limits<float>::quiet_NaN());
    });
    expectRejected(path, "ray 0: tMin is not finite or tMax is NaN");
    path = patchedFile("nan_tmin", [](std::string &b) {
        setField(b, 6, std::numeric_limits<float>::quiet_NaN());
    });
    expectRejected(path, "ray 0: tMin is not finite or tMax is NaN");
}

TEST(RayFile, InvertedIntervalRejected)
{
    std::string path = patchedFile("inverted", [](std::string &b) {
        setField(b, 6, 2.0f);
        setField(b, 7, 1.0f);
    });
    expectRejected(path, "ray 0: tMin is greater than tMax");
}

TEST(RayFile, InfiniteTMaxAccepted)
{
    std::string path = patchedFile("inf_tmax", [](std::string &b) {
        setField(b, 7, std::numeric_limits<float>::infinity());
    });
    RayBatch in;
    std::string why;
    ASSERT_TRUE(loadRayFile(path, in, &why)) << why;
    ASSERT_EQ(in.rays.size(), 1u);
    EXPECT_EQ(in.rays[0].tMax, std::numeric_limits<float>::infinity());
    std::remove(path.c_str());
}

} // namespace
} // namespace rtp
