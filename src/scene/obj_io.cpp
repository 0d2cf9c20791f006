#include "scene/obj_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
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
            std::vector<std::size_t> idx;
            std::string tok;
            while (ss >> tok) {
                const char *first = tok.data();
                const char *last = first + tok.find('/');
                if (last < first)
                    last = first + tok.size();
                std::int64_t v = 0;
                auto [end, ec] = std::from_chars(first, last, v);
                if (ec == std::errc::result_out_of_range)
                    return fail(path + ":" + std::to_string(line_no) +
                                ": face index overflows: " + tok);
                if (ec != std::errc() || end != last)
                    return fail(path + ":" + std::to_string(line_no) +
                                ": face index is not an integer: " +
                                tok);
                // Relative indices count back from the last vertex.
                // Both forms are range-checked before any arithmetic
                // that could overflow. An index outside the list fails:
                // dropping the corner would fan the rest of the polygon
                // into the wrong triangle.
                const auto count =
                    static_cast<std::int64_t>(vertices.size());
                if (v < 0 && v >= -count)
                    idx.push_back(static_cast<std::size_t>(count + v));
                else if (v >= 1 && v <= count)
                    idx.push_back(static_cast<std::size_t>(v - 1));
                else
                    return fail(path + ":" + std::to_string(line_no) +
                                ": face index out of range: " + tok);
            }
            if (idx.size() < 3)
                return fail(path + ":" + std::to_string(line_no) +
                            ": face needs at least three corners: " +
                            line);
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
