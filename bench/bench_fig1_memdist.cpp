/**
 * @file
 * Figure 1 (left): distribution of memory access types for AO
 * workloads. The paper reports ~88% of accesses are repeated BVH node
 * accesses (a node some earlier ray already fetched), motivating the
 * predictor: those accesses carry no new information for the final
 * intersection result.
 */

#include <cstdio>
#include <unordered_set>

#include "bvh/traversal.hpp"
#include "exp/harness.hpp"

using namespace rtp;

int
main()
{
    WorkloadConfig wc = WorkloadConfig::fromEnvironment();
    printHeader("Figure 1 (left): Memory access distribution",
                "Liu et al., MICRO 2021, Figure 1 (repeated BVH node "
                "accesses ~88%)",
                wc);
    WorkloadCache cache(wc);
    std::vector<const Workload *> workloads = cache.getAll(allSceneIds());

    // The per-scene trace replay is independent; one job per scene.
    struct Counts
    {
        std::uint64_t repeat_node = 0, first_node = 0, repeat_tri = 0,
                      first_tri = 0;
    };
    std::vector<Counts> counts = runSweep(
        workloads,
        [](const Workload *wp) {
            const Workload &w = *wp;
            BvhTraversal trav(w.bvh, w.scene.mesh.triangles());
            std::unordered_set<std::uint32_t> seen_nodes, seen_leaves;
            Counts c;
            for (const Ray &ray : w.ao.rays) {
                TraversalStats ts;
                ts.recordTrace = true;
                trav.anyHit(ray, &ts);
                for (std::uint32_t node : ts.nodeTrace) {
                    if (w.bvh.node(node).isLeaf()) {
                        if (seen_leaves.insert(node).second)
                            c.first_tri++;
                        else
                            c.repeat_tri++;
                    } else {
                        if (seen_nodes.insert(node).second)
                            c.first_node++;
                        else
                            c.repeat_node++;
                    }
                }
            }
            return c;
        },
        "fig1-memdist");

    std::printf("%-6s %12s %12s %12s %12s\n", "Scene", "RepeatNode",
                "FirstNode", "RepeatTri", "FirstTri");
    double rn = 0, fn = 0, rt = 0, ft = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Counts &c = counts[i];
        double total = static_cast<double>(c.repeat_node + c.first_node +
                                           c.repeat_tri + c.first_tri);
        rn += c.repeat_node / total;
        fn += c.first_node / total;
        rt += c.repeat_tri / total;
        ft += c.first_tri / total;
        std::printf("%-6s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
                    workloads[i]->scene.shortName.c_str(),
                    c.repeat_node / total * 100,
                    c.first_node / total * 100,
                    c.repeat_tri / total * 100,
                    c.first_tri / total * 100);
    }
    double n = static_cast<double>(workloads.size());
    std::printf("%-6s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", "AVG",
                rn / n * 100, fn / n * 100, rt / n * 100, ft / n * 100);
    std::printf("\nPaper: repeated BVH node accesses form ~88%% of all "
                "memory accesses,\nso skipping them is the predictor's "
                "opportunity.\n");
    return 0;
}
