/**
 * @file
 * Ray batch serialization.
 *
 * The paper's artifact ships ".ray_files" containing the exact rays it
 * simulated so runs are reproducible across machines. This module
 * provides the same capability: a compact binary format (magic +
 * version + count, then fixed-size records) for saving and reloading
 * RayBatch workloads.
 */

#pragma once

#include <string>

#include "rays/raygen.hpp"

namespace rtp {

/**
 * Write a ray batch to @p path.
 * @retval true on success.
 */
bool saveRayFile(const std::string &path, const RayBatch &batch);

/**
 * Load a ray batch from @p path.
 *
 * The file is untrusted: the header's ray count must fit in the bytes
 * that follow it, and every record must be a valid ray — a known kind,
 * a finite origin, a finite non-zero direction, and a finite tMin no
 * greater than tMax (tMax may be +inf). Any violation fails the load.
 *
 * @param batch Out: the loaded rays and metadata (unspecified on
 *        failure).
 * @param error Out (optional): on failure, the reason, naming the ray.
 * @retval true on success (false on I/O error, format mismatch or an
 *         invalid ray).
 */
bool loadRayFile(const std::string &path, RayBatch &batch,
                 std::string *error = nullptr);

} // namespace rtp
