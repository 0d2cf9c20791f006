/**
 * @file
 * Reference-traversal oracle: a plain recursive BVH walker.
 *
 * The cycle-level RT unit (rtunit/rt_unit.cpp) walks the BVH as an
 * event-driven per-ray state machine with a spilling hardware stack,
 * predictor restarts, and warp repacking; bvh/traversal.cpp walks it
 * with an iterative software stack. This module is a third, deliberately
 * boring implementation — direct recursion, no stack object, no early
 * bookkeeping — used as the oracle the validation layer cross-checks the
 * RT unit against (SimConfig::check, docs/validation.md). Three
 * independent traversal implementations agreeing per ray is the
 * strongest cheap evidence that none of them is wrong. That is why this
 * walk is not folded into BvhTraversal: the checker (RTP_CHECK) and the
 * benchmark's BvhTraversal-vs-oracle mismatch count would then compare
 * one walk with itself.
 *
 * Guarantees cross-checks may rely on (geometry/intersect.cpp rejects
 * t >= ray.tMax strictly, so pruned subtrees can never contain a closer
 * hit and the closest-hit distance is traversal-order independent):
 *  - occlusion rays: the hit flag is exact;
 *  - closest-hit rays: the hit flag and distance t are exact (bitwise);
 *    the reported primitive may differ only when two primitives tie at
 *    exactly the same t.
 */

#pragma once

#include <vector>

#include "bvh/bvh.hpp"
#include "geometry/ray.hpp"
#include "geometry/triangle.hpp"

namespace rtp {

/** Recursive any-hit (occlusion) reference traversal. */
HitRecord referenceAnyHit(const Bvh &bvh,
                          const std::vector<Triangle> &triangles,
                          const Ray &ray);

/** Recursive closest-hit reference traversal (near child first). */
HitRecord referenceClosestHit(const Bvh &bvh,
                              const std::vector<Triangle> &triangles,
                              const Ray &ray);

/**
 * Trace @p ray with the termination rule its kind selects (occlusion =
 * any-hit, primary/secondary = closest-hit) — the per-ray oracle the
 * checker compares RT unit results against.
 */
HitRecord referenceTrace(const Bvh &bvh,
                         const std::vector<Triangle> &triangles,
                         const Ray &ray);

} // namespace rtp
