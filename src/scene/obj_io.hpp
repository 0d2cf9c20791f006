/**
 * @file
 * Wavefront OBJ import/export for triangle meshes.
 *
 * The paper's artifact consumes .obj scene files; this repo generates
 * its scenes procedurally, but OBJ support lets users (a) export the
 * procedural analogues for inspection in any viewer, and (b) run the
 * predictor on their own meshes. Only the triangle-relevant subset of
 * OBJ is handled: v records and f records (polygons are fan-
 * triangulated, negative indices supported).
 */

#pragma once

#include <string>

#include "scene/mesh.hpp"

namespace rtp {

/**
 * Write @p mesh as a Wavefront OBJ file.
 * @retval true on success.
 */
bool saveObj(const std::string &path, const Mesh &mesh);

/**
 * Load triangles from a Wavefront OBJ file.
 *
 * A vertex record that does not parse as three finite coordinates
 * fails the whole load: skipping it would renumber every later vertex
 * and silently connect faces to the wrong corners. Face indices outside
 * the vertex list are dropped (a face left with fewer than three
 * corners produces no triangle).
 *
 * @param mesh Out: triangles are appended, only on success.
 * @param error Out (optional): on failure, the reason, naming the line.
 * @retval true if the file parsed and produced at least one triangle.
 */
bool loadObj(const std::string &path, Mesh &mesh,
             std::string *error = nullptr);

} // namespace rtp
