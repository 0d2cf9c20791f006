/** @file OBJ import/export tests. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "scene/obj_io.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

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

TEST(ObjIo, OutOfRangeIndicesDropped)
{
    std::string path = "/tmp/rtp_test_oor.obj";
    {
        std::ofstream f(path);
        f << "v 0 0 0\nv 1 0 0\nv 0 1 0\n";
        f << "f 1 2 9\n"; // 9 does not exist -> face dropped
        f << "f 1 2 3\n";
    }
    Mesh m;
    ASSERT_TRUE(loadObj(path, m));
    EXPECT_EQ(m.size(), 1u);
    std::remove(path.c_str());
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
    std::string path = "/tmp/rtp_test_bad_vertex.obj";
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
