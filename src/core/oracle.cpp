#include "core/oracle.hpp"

#include <deque>
#include <unordered_set>

#include "bvh/traversal.hpp"

namespace rtp {

namespace {

/** Deferred training updates, modelling in-flight latency. */
struct PendingUpdate
{
    Ray ray;
    std::uint32_t node; //!< Go-Up-Level ancestor to insert
};

/** Count the accesses of a verification traversal from one node. */
std::uint64_t
verificationCost(BvhTraversal &trav, const Ray &ray, std::uint32_t node,
                 bool &found_hit)
{
    TraversalStats ts;
    HitRecord rec = trav.anyHit(ray, &ts, node);
    found_hit = rec.hit;
    return ts.nodesFetched + ts.leavesFetched; // fetch count incl. leaves
}

/** Does @p node's subtree contain any leaf of @p hit_leaves? */
bool
wouldVerify(const Bvh &bvh, std::uint32_t node,
            const std::vector<std::uint32_t> &hit_leaves)
{
    for (std::uint32_t leaf : hit_leaves) {
        if (bvh.inSubtree(node, leaf))
            return true;
    }
    return false;
}

} // namespace

LimitResult
runLimitStudy(const Bvh &bvh, const std::vector<Triangle> &triangles,
              const std::vector<Ray> &rays,
              const LimitStudyConfig &config, OracleMode mode)
{
    LimitResult result;
    RayHasher hasher(config.predictor.hash, bvh.sceneBounds());
    PredictorTable table(config.predictor.table, hasher.hashBits());
    BvhTraversal trav(bvh, triangles);

    const bool unbounded = mode == OracleMode::OracleTraining ||
                           mode == OracleMode::OracleUpdates;
    const bool oracle_select = mode != OracleMode::Realistic;
    const std::uint32_t delay =
        mode == OracleMode::OracleUpdates ? 0 : config.trainingDelay;

    // Unbounded-table state: every node ever trained.
    std::unordered_set<std::uint32_t> trained_nodes;
    // Bounded-table shadow for OL whole-table scans: the set of nodes
    // currently resident anywhere in the real table. For simplicity OL
    // uses the same PredictorTable but additionally scans this set.
    std::unordered_set<std::uint32_t> resident_nodes;

    std::deque<PendingUpdate> pending;
    std::vector<std::uint32_t> tri_to_slot;

    auto apply_update = [&](const PendingUpdate &u) {
        if (unbounded) {
            trained_nodes.insert(u.node);
        } else {
            table.update(hasher.hash(u.ray), u.node);
            resident_nodes.insert(u.node);
        }
    };

    for (const Ray &ray : rays) {
        // Release updates older than the in-flight window.
        while (pending.size() > delay) {
            apply_update(pending.front());
            pending.pop_front();
        }

        result.rays++;

        // Ground truth for this ray.
        TraversalStats base_ts;
        HitRecord base = trav.anyHit(ray, &base_ts);
        std::uint64_t base_cost =
            base_ts.nodesFetched + base_ts.leavesFetched;
        result.baselineAccesses += base_cost;
        if (base.hit)
            result.hits++;

        // Candidate predicted nodes.
        std::vector<std::uint32_t> prediction;
        std::vector<std::uint32_t> hit_leaves;
        if (oracle_select)
            hit_leaves = collectHitLeaves(bvh, triangles, ray);

        switch (mode) {
          case OracleMode::Realistic: {
            auto nodes = table.lookup(hasher.hash(ray));
            if (nodes)
                prediction = *nodes;
            break;
          }
          case OracleMode::OracleLookup: {
            // Perfect selection within the capacity-limited table: use
            // any resident node that would verify.
            for (std::uint32_t node : resident_nodes) {
                if (wouldVerify(bvh, node, hit_leaves)) {
                    prediction.push_back(node);
                    break;
                }
            }
            break;
          }
          case OracleMode::OracleTraining:
          case OracleMode::OracleUpdates: {
            // Unbounded table: any trained node that would verify. Walk
            // each hit leaf's ancestor chain and check membership.
            for (std::uint32_t leaf : hit_leaves) {
                std::uint32_t n = leaf;
                while (true) {
                    if (trained_nodes.count(n)) {
                        prediction.push_back(n);
                        break;
                    }
                    std::int32_t p = bvh.node(n).parent;
                    if (p < 0)
                        break;
                    n = static_cast<std::uint32_t>(p);
                }
                if (!prediction.empty())
                    break;
            }
            break;
          }
        }

        // Cost accounting (Section 3 / Equation 1 cases).
        std::uint64_t cost = 0;
        bool verified = false;
        if (!prediction.empty()) {
            result.predicted++;
            for (std::uint32_t node : prediction) {
                bool found;
                cost += verificationCost(trav, ray, node, found);
                if (found) {
                    verified = true;
                    break;
                }
            }
            if (!verified)
                cost += base_cost; // misprediction: full traversal too
        } else {
            cost = base_cost;
        }
        if (verified)
            result.verified++;
        result.predictorAccesses += cost;

        // Train on hit (delayed by the in-flight window). anyHit
        // reports the triangle id; map it back to its primIndices slot
        // to find the containing leaf (map built once per BVH).
        if (base.hit) {
            if (tri_to_slot.empty()) {
                tri_to_slot.assign(bvh.primIndices().size(), 0);
                for (std::uint32_t s2 = 0;
                     s2 < bvh.primIndices().size(); ++s2)
                    tri_to_slot[bvh.primIndices()[s2]] = s2;
            }
            std::uint32_t hit_leaf =
                bvh.leafOfPrimSlot(tri_to_slot[base.prim]);
            PendingUpdate u;
            u.ray = ray;
            u.node = bvh.ancestorOf(hit_leaf,
                                    config.predictor.goUpLevel);
            pending.push_back(u);
        }
    }

    return result;
}

} // namespace rtp
