#include "rays/rayfile.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

namespace rtp {

namespace {

constexpr char kMagic[8] = {'R', 'T', 'P', 'R', 'A', 'Y', 'S', '1'};

/** Fixed-size on-disk ray record (little-endian floats). */
struct RayRecord
{
    float ox, oy, oz;
    float dx, dy, dz;
    float tmin, tmax;
    std::uint8_t kind;
    std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(RayRecord) == 36, "on-disk layout");

struct Header
{
    char magic[8];
    std::uint64_t count;
    std::uint64_t primaryRays;
    std::uint64_t primaryHits;
};

} // namespace

bool
saveRayFile(const std::string &path, const RayBatch &batch)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    Header h{};
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.count = batch.rays.size();
    h.primaryRays = batch.primaryRays;
    h.primaryHits = batch.primaryHits;
    f.write(reinterpret_cast<const char *>(&h), sizeof(h));
    for (const Ray &r : batch.rays) {
        RayRecord rec;
        rec.ox = r.origin.x;
        rec.oy = r.origin.y;
        rec.oz = r.origin.z;
        rec.dx = r.dir.x;
        rec.dy = r.dir.y;
        rec.dz = r.dir.z;
        rec.tmin = r.tMin;
        rec.tmax = r.tMax;
        rec.kind = static_cast<std::uint8_t>(r.kind);
        f.write(reinterpret_cast<const char *>(&rec), sizeof(rec));
    }
    return static_cast<bool>(f);
}

namespace {

/** @return why @p r is not a valid ray, or nullptr if it is one. */
const char *
invalidRay(const RayRecord &r)
{
    auto finite = [](float a, float b, float c) {
        return std::isfinite(a) && std::isfinite(b) && std::isfinite(c);
    };
    if (r.kind > static_cast<std::uint8_t>(RayKind::Secondary))
        return "unknown ray kind";
    if (!finite(r.ox, r.oy, r.oz))
        return "origin is not finite";
    if (!finite(r.dx, r.dy, r.dz))
        return "direction is not finite";
    if (r.dx == 0.0f && r.dy == 0.0f && r.dz == 0.0f)
        return "direction is zero";
    if (!std::isfinite(r.tmin) || std::isnan(r.tmax))
        return "tMin is not finite or tMax is NaN";
    if (r.tmin > r.tmax)
        return "tMin is greater than tMax";
    return nullptr;
}

} // namespace

bool
loadRayFile(const std::string &path, RayBatch &batch, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = path + ": " + why;
        return false;
    };
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return fail("cannot open");
    Header h{};
    f.read(reinterpret_cast<char *>(&h), sizeof(h));
    if (!f || std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
        return fail("not a ray file (bad header)");
    // Trust the count only as far as the file backs it: reserving an
    // unchecked count lets a corrupt header exhaust memory.
    const std::streampos body = f.tellg();
    f.seekg(0, std::ios::end);
    const std::uint64_t room =
        static_cast<std::uint64_t>(f.tellg() - body) / sizeof(RayRecord);
    f.seekg(body);
    if (!f || h.count > room)
        return fail("header claims " + std::to_string(h.count) +
                    " rays but the file holds " + std::to_string(room));
    batch.rays.clear();
    batch.rays.reserve(h.count);
    batch.primaryRays = h.primaryRays;
    batch.primaryHits = h.primaryHits;
    for (std::uint64_t i = 0; i < h.count; ++i) {
        RayRecord rec;
        f.read(reinterpret_cast<char *>(&rec), sizeof(rec));
        if (!f)
            return fail("truncated at ray " + std::to_string(i));
        if (const char *why = invalidRay(rec))
            return fail("ray " + std::to_string(i) + ": " + why);
        Ray r;
        r.origin = {rec.ox, rec.oy, rec.oz};
        r.dir = {rec.dx, rec.dy, rec.dz};
        r.tMin = rec.tmin;
        r.tMax = rec.tmax;
        r.kind = static_cast<RayKind>(rec.kind);
        batch.rays.push_back(r);
    }
    return true;
}

} // namespace rtp
