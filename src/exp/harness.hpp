/**
 * @file
 * Experiment harness: per-scene simulation runs, speedup computation,
 * the parallel sweep entry points, machine-readable JSON result sinks,
 * and the table/figure row printers shared by the bench binaries.
 */

#pragma once

#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/workload.hpp"
#include "gpu/simulator.hpp"

namespace rtp {

/** One (scene, config) simulation outcome for a table row. */
struct RunOutcome
{
    std::string scene;
    SimResult baseline;  //!< baseline RT unit
    SimResult treatment; //!< the studied configuration

    /** Speedup of the treatment over the baseline (cycles ratio). */
    double
    speedup() const
    {
        return treatment.cycles == 0
                   ? 1.0
                   : static_cast<double>(baseline.cycles) /
                         treatment.cycles;
    }

    /** Relative memory-access change (negative = fewer accesses). */
    double
    memAccessDelta() const
    {
        auto b = baseline.totalMemAccesses();
        auto t = treatment.totalMemAccesses();
        return b == 0 ? 0.0
                      : (static_cast<double>(t) - static_cast<double>(b)) /
                            static_cast<double>(b);
    }
};

/**
 * One independent simulation run of a sweep: everything a Simulation
 * and its run() need, by reference. The referenced BVH / triangles /
 * rays must stay alive and unmodified for the duration of the sweep
 * (they are shared read-only across worker threads).
 */
struct SimPoint
{
    const Bvh *bvh = nullptr;
    const std::vector<Triangle> *triangles = nullptr;
    const std::vector<Ray> *rays = nullptr;
    SimConfig config;
};

/** Build a SimPoint over one workload's AO rays. */
SimPoint makePoint(const Workload &w, const SimConfig &config,
                   bool sorted = false);

/**
 * Execute every sweep point through the thread pool and return results
 * in submission order — output built from them is byte-identical to a
 * serial run at any thread count. The pool size and each simulation's
 * sharded-loop worker count come from the RTP_THREADS /
 * RTP_SIM_THREADS thread budget (threadBudgetFromEnv, exp/parallel.hpp;
 * malformed values throw std::invalid_argument before any run starts).
 * @p label is used for the stderr timing summary.
 */
std::vector<SimResult> runSimPoints(const std::vector<SimPoint> &points,
                                    const char *label);

/**
 * Run baseline + treatment over each workload's AO rays, all 2N
 * simulations concurrently, preserving workload order.
 */
std::vector<RunOutcome> runPairsParallel(
    const std::vector<const Workload *> &workloads,
    const SimConfig &baseline, const SimConfig &treatment,
    bool sorted = false, const char *label = "pairs");

/**
 * Machine-readable result sink: collects labelled SimResults and
 * writes `<name>.json` into RTP_JSON_DIR (default: the working
 * directory) when closed or destroyed, so bench outputs become
 * trackable across PRs. Entries appear in add() order; all formatting
 * is deterministic.
 */
class JsonResultSink
{
  public:
    /** @param name Output stem, e.g. "bench_fig12_speedup". */
    explicit JsonResultSink(std::string name);

    /** Writes the file on destruction unless close() already did. */
    ~JsonResultSink();

    JsonResultSink(const JsonResultSink &) = delete;
    JsonResultSink &operator=(const JsonResultSink &) = delete;

    /** Append one labelled run outcome. */
    void add(const std::string &label, const SimResult &result);

    /** Write the JSON file now. @return true on success. */
    bool close();

    /** @return Path the sink writes to. */
    const std::string &
    path() const
    {
        return path_;
    }

  private:
    std::string name_;
    std::string path_;
    std::vector<std::string> entries_; //!< pre-rendered "label":{...}
    bool closed_ = false;
};

/**
 * Create the directory portion of @p path (recursively) if missing, so
 * sinks honouring RTP_JSON_DIR work with not-yet-existing directories.
 * @return false (with a [rtp-harness] stderr message) when creation
 *         fails; a path without a directory portion returns true.
 */
bool ensureParentDir(const std::string &path);

/** Print a standard header naming the experiment and its scope. */
void printHeader(const std::string &title, const std::string &paper_ref,
                 const WorkloadConfig &config);

/** Format a ratio as a percentage string like "+26.3%". */
std::string pct(double ratio);

} // namespace rtp
