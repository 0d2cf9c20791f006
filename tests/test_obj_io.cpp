/** @file OBJ import/export tests. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "scene/obj_io.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

/**
 * A path unique to the running test: ctest runs each test as its own
 * process, in parallel, so tests sharing a helper must not share its
 * file.
 */
std::string
testPath(const std::string &stem)
{
    const char *test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return "/tmp/" + stem + "_" + test + ".obj";
}

TEST(ObjIo, RoundTripPreservesGeometry)
{
    Mesh out;
    out.addBox(Aabb{{0, 0, 0}, {1, 2, 3}});
    out.addTriangle({5, 5, 5}, {6, 5, 5}, {5, 6, 5});

    std::string path = "/tmp/rtp_test.obj";
    ASSERT_TRUE(saveObj(path, out));

    Mesh in;
    ASSERT_TRUE(loadObj(path, in));
    ASSERT_EQ(in.size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(in.triangles()[i].v0, out.triangles()[i].v0);
        EXPECT_EQ(in.triangles()[i].v1, out.triangles()[i].v1);
        EXPECT_EQ(in.triangles()[i].v2, out.triangles()[i].v2);
    }
    std::remove(path.c_str());
}

TEST(ObjIo, ParsesQuadFacesByFanTriangulation)
{
    std::string path = "/tmp/rtp_test_quad.obj";
    {
        std::ofstream f(path);
        f << "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n";
        f << "f 1 2 3 4\n";
    }
    Mesh m;
    ASSERT_TRUE(loadObj(path, m));
    EXPECT_EQ(m.size(), 2u);
    float area = 0;
    for (const auto &t : m.triangles())
        area += t.area();
    EXPECT_NEAR(area, 1.0f, 1e-5f);
    std::remove(path.c_str());
}

TEST(ObjIo, ParsesSlashFormatsAndNegativeIndices)
{
    std::string path = "/tmp/rtp_test_slash.obj";
    {
        std::ofstream f(path);
        f << "v 0 0 0\nv 1 0 0\nv 0 1 0\n";
        f << "f 1/1 2/2/2 3//3\n";
        f << "f -3 -2 -1\n"; // same triangle via negative indices
    }
    Mesh m;
    ASSERT_TRUE(loadObj(path, m));
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m.triangles()[0].v0, m.triangles()[1].v0);
    EXPECT_EQ(m.triangles()[0].v2, m.triangles()[1].v2);
    std::remove(path.c_str());
}

TEST(ObjIo, IgnoresCommentsAndUnknownTags)
{
    std::string path = "/tmp/rtp_test_misc.obj";
    {
        std::ofstream f(path);
        f << "# header comment\n";
        f << "mtllib foo.mtl\nusemtl bar\no object\ns off\n";
        f << "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\n";
        f << "f 1 2 3\n";
    }
    Mesh m;
    ASSERT_TRUE(loadObj(path, m));
    EXPECT_EQ(m.size(), 1u);
    std::remove(path.c_str());
}

TEST(ObjIo, MissingFileFails)
{
    Mesh m;
    EXPECT_FALSE(loadObj("/tmp/nope_not_an_obj.obj", m));
}

/**
 * Load a file whose second line is the vertex record @p bad. It must
 * fail with a reason naming line 2 and leave the mesh untouched: a
 * skipped record would shift every later index, and the face would
 * load as the wrong triangle.
 */
void
expectBadVertexFails(const std::string &bad)
{
    std::string path = testPath("rtp_test_bad_vertex");
    {
        std::ofstream f(path);
        f << "v 0 0 0\n" << bad << "\nv 1 0 0\nv 0 1 0\nf 1 2 3\n";
    }
    Mesh m;
    EXPECT_FALSE(loadObj(path, m)) << bad;
    EXPECT_EQ(m.size(), 0u) << bad;
    std::string why;
    EXPECT_FALSE(loadObj(path, m, &why));
    EXPECT_NE(why.find(path + ":2:"), std::string::npos) << why;
    std::remove(path.c_str());
}

TEST(ObjIo, ShortVertexLineFails)
{
    expectBadVertexFails("v 1 0");
}

TEST(ObjIo, NanVertexFails)
{
    expectBadVertexFails("v nan 0 0");
}

TEST(ObjIo, OverflowingVertexFails)
{
    expectBadVertexFails("v 1e39 0 0");
}

/**
 * Load a file whose face line (line 4) is @p bad. It must fail with a
 * reason naming line 4 (and containing @p reason, when given) and
 * leave the mesh untouched.
 */
void
expectBadFaceFails(const std::string &bad, const std::string &reason = "")
{
    std::string path = testPath("rtp_test_bad_face");
    {
        std::ofstream f(path);
        f << "v 0 0 0\nv 1 0 0\nv 0 1 0\n" << bad << "\nf 1 2 3\n";
    }
    Mesh m;
    std::string why;
    EXPECT_FALSE(loadObj(path, m, &why)) << bad;
    EXPECT_EQ(m.size(), 0u) << bad;
    EXPECT_NE(why.find(path + ":4:"), std::string::npos) << why;
    EXPECT_NE(why.find(reason), std::string::npos) << why;
    std::remove(path.c_str());
}

TEST(ObjIo, NonNumericFaceIndexFails)
{
    expectBadFaceFails("f 1 2 x");
    expectBadFaceFails("f 1 2 3abc");
    expectBadFaceFails("f 1 2 /3");
}

TEST(ObjIo, OverflowingFaceIndexFails)
{
    expectBadFaceFails("f 1 2 99999999999999999999");
    expectBadFaceFails("f 1 2 -99999999999999999999/1");
}

TEST(ObjIo, OutOfRangeFaceIndexFails)
{
    // Dropping the bad corner would load "f 1 9 2 3" as the triangle
    // 1-2-3: the wrong geometry, without a word.
    expectBadFaceFails("f 1 2 9", "face index out of range: 9");
    expectBadFaceFails("f 1 9 2 3", "face index out of range: 9");
    expectBadFaceFails("f 0 1 2", "face index out of range: 0");
    expectBadFaceFails("f -4 -2 -1", "face index out of range: -4");
}

TEST(ObjIo, FaceWithFewerThanThreeCornersFails)
{
    expectBadFaceFails("f 1 2", "face needs at least three corners: f 1 2");
    expectBadFaceFails("f", "face needs at least three corners: f");
}

TEST(ObjIo, HugeIndicesWithinRangeOfInt64Fail)
{
    // Past int but inside int64: out of the vertex list, so the load
    // fails as for any out-of-range index, never wrapping around.
    expectBadFaceFails("f 1 2 4294967298",
                       "face index out of range: 4294967298");
    expectBadFaceFails("f 1 2 -9223372036854775808",
                       "face index out of range: -9223372036854775808");
}

TEST(ObjIo, ProceduralSceneSurvivesRoundTrip)
{
    Scene s = makeScene(SceneId::Sibenik, 0.02f);
    std::string path = "/tmp/rtp_test_scene.obj";
    ASSERT_TRUE(saveObj(path, s.mesh));
    Mesh in;
    ASSERT_TRUE(loadObj(path, in));
    EXPECT_EQ(in.size(), s.mesh.size());
    Aabb a = s.mesh.bounds(), b = in.bounds();
    EXPECT_NEAR(a.diagonal(), b.diagonal(), 0.05f * a.diagonal());
    std::remove(path.c_str());
}

} // namespace
} // namespace rtp
