#include "scene/obj_io.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace rtp {

bool
saveObj(const std::string &path, const Mesh &mesh)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "# exported by ray-intersection-predictor\n";
    for (const Triangle &t : mesh.triangles()) {
        for (const Vec3 *v : {&t.v0, &t.v1, &t.v2})
            f << "v " << v->x << " " << v->y << " " << v->z << "\n";
    }
    for (std::size_t i = 0; i < mesh.size(); ++i) {
        std::size_t base = i * 3;
        f << "f " << base + 1 << " " << base + 2 << " " << base + 3
          << "\n";
    }
    return static_cast<bool>(f);
}

bool
loadObj(const std::string &path, Mesh &mesh, std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    std::ifstream f(path);
    if (!f)
        return fail("cannot open " + path);

    std::vector<Vec3> vertices;
    Mesh parsed;
    std::string line;
    for (std::size_t line_no = 1; std::getline(f, line); ++line_no) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string tag;
        ss >> tag;
        if (tag == "v") {
            // Overflowing values and "nan"/"inf" set the fail bit too.
            Vec3 v;
            ss >> v.x >> v.y >> v.z;
            if (ss.fail() || !std::isfinite(v.x) ||
                !std::isfinite(v.y) || !std::isfinite(v.z))
                return fail(path + ":" + std::to_string(line_no) +
                            ": vertex needs three finite coordinates: " +
                            line);
            vertices.push_back(v);
        } else if (tag == "f") {
            // Face indices may be "i", "i/t", "i/t/n", or "i//n";
            // take the vertex index and fan-triangulate polygons.
            std::vector<int> idx;
            std::string tok;
            while (ss >> tok) {
                int v = std::atoi(tok.c_str()); // stops at '/'
                if (v < 0)
                    v = static_cast<int>(vertices.size()) + v + 1;
                if (v >= 1 &&
                    v <= static_cast<int>(vertices.size()))
                    idx.push_back(v - 1);
            }
            for (std::size_t k = 2; k < idx.size(); ++k) {
                parsed.addTriangle(vertices[idx[0]],
                                   vertices[idx[k - 1]],
                                   vertices[idx[k]]);
            }
        }
    }
    if (parsed.size() == 0)
        return fail(path + ": no triangles");
    mesh.append(parsed);
    return true;
}

} // namespace rtp
