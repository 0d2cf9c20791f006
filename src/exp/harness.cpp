#include "exp/harness.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <fstream>

#include "exp/env_config.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/profile.hpp"
#include "util/schema.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace rtp {

namespace {

/** Clamp a parsed sweep-point index to the sweep size. */
std::size_t
clampPointIndex(std::size_t idx, std::size_t num_points)
{
    return idx < num_points ? idx : num_points - 1;
}

} // namespace

SimPoint
makePoint(const Workload &w, const SimConfig &config, bool sorted)
{
    SimPoint p;
    p.bvh = &w.bvh;
    p.triangles = &w.scene.mesh.triangles();
    p.rays = sorted ? &w.aoSorted.rays : &w.ao.rays;
    p.config = config;
    return p;
}

std::vector<SimResult>
runSimPoints(const std::vector<SimPoint> &points, const char *label)
{
    // All RTP_* knobs come from the unified env layer
    // (exp/env_config.hpp): thread budget, checker flag, and
    // observer paths. Re-read per sweep (not cached)
    // so tests can vary the environment between calls; malformed
    // values throw here, before any simulation starts.
    //
    // RTP_CHECK=1 runs every sweep point under the invariant checker
    // and the per-ray reference oracle (util/check.hpp,
    // docs/validation.md). One stack-local checker per point keeps the
    // single-threaded checker contract under the parallel sweep. A
    // violation throws InvariantViolation and aborts the bench — the
    // point of the flag is that CI fails loudly, so no recovery is
    // attempted. Checked results are byte-identical to unchecked ones;
    // only wall-clock time changes.
    const EnvConfig env = EnvConfig::fromEnvironment();
    const ThreadBudget budget = env.budget;
    auto run = [&env, &budget](const SimPoint &p) {
        SimConfig config = p.config;
        config.inheritSimThreads(budget.simThreads);
        if (env.check) {
            InvariantChecker check;
            config.check = &check;
            return Simulation(config, *p.bvh, *p.triangles)
                .run(*p.rays);
        }
        return Simulation(config, *p.bvh, *p.triangles).run(*p.rays);
    };

    // RTP_TRACE=<path> / RTP_TELEMETRY=<path>: attach a cycle-level
    // trace sink and/or an interval telemetry sampler to one sweep
    // point each (indices RTP_TRACE_POINT / RTP_TELEMETRY_POINT,
    // default 0, clamped) and write the observer output after the
    // sweep. Only the first non-empty sweep of the process is
    // observed, so multi-sweep benches produce one file per observer.
    // Each observer rides on exactly one point, which executes on
    // exactly one worker thread, so no locking is needed. Observers
    // write nothing to stdout and never change simulated cycles, so
    // bench output is byte-identical with or without them.
    static bool traceConsumed = false;
    static bool telemetryConsumed = false;
    static bool profileConsumed = false;
    bool want_trace = !env.tracePath.empty() && !traceConsumed &&
                      !points.empty();
    bool want_telemetry = !env.telemetryPath.empty() &&
                          !telemetryConsumed && !points.empty();
    bool want_profile = !env.profilePath.empty() && !profileConsumed &&
                        !points.empty();
    if (!want_trace && !want_telemetry && !want_profile)
        return runSweep(points, run, label, nullptr,
                        budget.sweepThreads);

    std::vector<SimPoint> observed = points;
    TraceSink sink;
    std::size_t trace_idx = 0;
    if (want_trace) {
        traceConsumed = true;
        trace_idx = clampPointIndex(env.tracePoint, points.size());
        observed[trace_idx].config.trace = &sink;
    }

    std::unique_ptr<TelemetrySampler> sampler;
    std::size_t telemetry_idx = 0;
    if (want_telemetry) {
        telemetryConsumed = true;
        telemetry_idx =
            clampPointIndex(env.telemetryPoint, points.size());
        // RTP_TELEMETRY_PERIOD (strict, >= 1): sampling period in
        // simulated cycles. 256 resolves predictor warm-up on the
        // bundled workloads while keeping timelines to a few thousand
        // records.
        sampler = std::make_unique<TelemetrySampler>(
            env.telemetryPeriod);
        observed[telemetry_idx].config.telemetry = sampler.get();
    }

    // One profiler per process, riding on one sweep point
    // (RTP_PROFILE_POINT, clamped).
    std::unique_ptr<CycleProfiler> profiler;
    std::size_t profile_idx = 0;
    if (want_profile) {
        profileConsumed = true;
        profile_idx = clampPointIndex(env.profilePoint, points.size());
        profiler = std::make_unique<CycleProfiler>();
        observed[profile_idx].config.profile = profiler.get();
    }

    std::vector<SimResult> results =
        runSweep(observed, run, label, nullptr, budget.sweepThreads);

    if (want_trace) {
        if (ensureParentDir(env.tracePath) &&
            sink.writeChromeTrace(env.tracePath))
            std::fprintf(stderr,
                         "[rtp-harness] wrote trace %s "
                         "(%zu events, %llu dropped, point %zu)\n",
                         env.tracePath.c_str(), sink.size(),
                         static_cast<unsigned long long>(
                             sink.dropped()),
                         trace_idx);
        else
            std::fprintf(stderr,
                         "[rtp-harness] cannot write trace %s\n",
                         env.tracePath.c_str());
    }
    if (want_telemetry) {
        // Extension picks the format: .csv = long-format CSV,
        // everything else = the JSON timeline object.
        const std::string &path = env.telemetryPath;
        bool csv = path.size() >= 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0;
        bool ok = ensureParentDir(path) &&
                  (csv ? sampler->writeCsv(path)
                       : sampler->writeJson(path));
        if (ok)
            std::fprintf(
                stderr,
                "[rtp-harness] wrote telemetry %s "
                "(%zu samples, %llu dropped, period %llu, point %zu)\n",
                path.c_str(), sampler->records().size(),
                static_cast<unsigned long long>(
                    sampler->droppedRecords()),
                static_cast<unsigned long long>(sampler->period()),
                telemetry_idx);
        else
            std::fprintf(stderr,
                         "[rtp-harness] cannot write telemetry %s\n",
                         path.c_str());
    }
    if (want_profile) {
        const std::string &path = env.profilePath;
        bool ok = ensureParentDir(path);
        if (ok) {
            std::ofstream os(path);
            profiler->writeJson(os);
            os << "\n";
            ok = os.good();
        }
        if (ok)
            std::fprintf(
                stderr,
                "[rtp-harness] wrote profile %s "
                "(%u SMs, %llu cycles, point %zu)\n",
                path.c_str(), profiler->numSms(),
                static_cast<unsigned long long>(profiler->elapsed()),
                profile_idx);
        else
            std::fprintf(stderr,
                         "[rtp-harness] cannot write profile %s\n",
                         path.c_str());
    }
    return results;
}

bool
ensureParentDir(const std::string &path)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
        std::fprintf(stderr,
                     "[rtp-harness] cannot create directory %s: %s\n",
                     parent.string().c_str(), ec.message().c_str());
        return false;
    }
    return true;
}

std::vector<RunOutcome>
runPairsParallel(const std::vector<const Workload *> &workloads,
                 const SimConfig &baseline, const SimConfig &treatment,
                 bool sorted, const char *label)
{
    // Submit baseline and treatment as separate jobs (2N total) so
    // slow scenes don't serialise their two runs on one worker.
    std::vector<SimPoint> points;
    points.reserve(workloads.size() * 2);
    for (const Workload *w : workloads) {
        points.push_back(makePoint(*w, baseline, sorted));
        points.push_back(makePoint(*w, treatment, sorted));
    }
    std::vector<SimResult> results = runSimPoints(points, label);

    std::vector<RunOutcome> outcomes;
    outcomes.reserve(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        RunOutcome out;
        out.scene = workloads[i]->scene.shortName;
        out.baseline = std::move(results[2 * i]);
        out.treatment = std::move(results[2 * i + 1]);
        outcomes.push_back(std::move(out));
    }
    return outcomes;
}

JsonResultSink::JsonResultSink(std::string name) : name_(std::move(name))
{
    const std::string dir = envString("RTP_JSON_DIR");
    path_ = !dir.empty() ? dir + "/" + name_ + ".json"
                         : name_ + ".json";
}

JsonResultSink::~JsonResultSink()
{
    close();
}

void
JsonResultSink::add(const std::string &label, const SimResult &result)
{
    // Appended rather than concatenated: GCC 12 misreads the inlined
    // `"literal" + std::string&&` copy as overlapping (-Wrestrict).
    const std::string key = jsonEscape(label);
    const std::string json = result.toJson();
    std::string entry;
    entry.reserve(key.size() + json.size() + 3);
    entry.append("\"").append(key).append("\":").append(json);
    entries_.push_back(std::move(entry));
}

bool
JsonResultSink::close()
{
    if (closed_)
        return true;
    closed_ = true;

    std::ostringstream os;
    os << "{\"schema_version\":" << kResultSchemaVersion
       << ",\"bench\":\"" << jsonEscape(name_) << "\"";
    os << ",\"results\":{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i)
            os << ",";
        os << entries_[i];
    }
    os << "}}\n";

    // RTP_JSON_DIR may name a directory that does not exist yet (a
    // fresh CI artifact dir); create it instead of silently dropping
    // the results.
    if (!ensureParentDir(path_))
        return false;
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f) {
        std::fprintf(stderr,
                     "[rtp-harness] cannot write %s: %s\n",
                     path_.c_str(), std::strerror(errno));
        return false;
    }
    const std::string body = os.str();
    bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok)
        std::fprintf(stderr, "[rtp-harness] wrote %s\n", path_.c_str());
    return ok;
}

void
printHeader(const std::string &title, const std::string &paper_ref,
            const WorkloadConfig &config)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("Workload: detail=%.2f viewport=%dx%d spp=%d "
                "(RTP_SCALE env raises fidelity)\n",
                config.detail, config.raygen.width, config.raygen.height,
                config.raygen.samplesPerPixel);
    std::printf("==============================================================\n");
}

std::string
pct(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", ratio * 100.0);
    return buf;
}

} // namespace rtp
