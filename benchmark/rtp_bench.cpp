/**
 * @file
 * End-to-end benchmark of the simulator pipeline.
 *
 * One pass is the whole pipeline a user runs: scene generation, BVH
 * build, ray generation, Simulation construction and run for the
 * baseline and proposed presets, and SimResult::toJson of every
 * result. Each invocation runs one workload as a closed loop of one
 * client on one thread: one warm-up pass, then measured passes back to
 * back until --seconds have elapsed (--seconds 0 measures one pass).
 * Timings are medians over the measured passes, calibrated to a
 * reference host speed (see StepTimes); wall.* lines give them raw.
 *
 * Only public library entry points are called, and no host knob is set
 * (no simThreads, kernel, backend, observer, or environment variable),
 * so the library is measured exactly as it ships.
 *
 * Every pass is checked, outside the timed spans: each simulated ray's
 * hit flag (and, for closest-hit rays, its distance bit for bit) must
 * equal the referenceTrace oracle (or be a verified real hit nearer
 * than it or one ULP farther, see acceptVerifiedHits), and every
 * result's JSON must be byte-identical to the warm-up pass's.
 *
 * Usage:
 *   rtp_bench --workload W --seed N [--seconds S] [--trace FILE]
 *
 * Prints "workload metric value unit" lines, then one JSON line with
 * the check tally and every metric. With --trace the spans of every
 * pass are written to FILE and each layer's self time is printed.
 * Exit status: 0 when every check passed, 1 on a failed check or an
 * unwritable trace file, 2 on a usage error.
 */

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "core/reference.hpp"
#include "exp/path_driver.hpp"
#include "exp/workload.hpp"
#include "geometry/intersect.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

using namespace rtp;

namespace {

/** The paper's Figure 12 geomean AO speedup, in percent. */
constexpr double kPaperAoSpeedupPct = 26.0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Kind
{
    Ao,        //!< generateAoRays, any-hit
    Photon,    //!< generatePhotonRays, closest-hit
    PathTrace, //!< runPathTrace, closest-hit waves
};

struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::Ao;
    std::vector<SceneId> scenes;
    float detail = 0.12f;
    RayGenConfig raygen;
    std::uint32_t numSms = 2;
};

/**
 * The four workloads. The scaled ones use the repo's default experiment
 * setup (detail 0.12, a 96x96 crop at the paper's 1024x1024 pixel
 * density, 4 spp), so at seed 42 their cycles equal the committed
 * bench baselines; ao_paperscale is tools/paperscale_smoke's input.
 */
std::optional<WorkloadSpec>
makeSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    s.scenes = allSceneIds();
    s.raygen.width = 96;
    s.raygen.height = 96;
    s.raygen.samplesPerPixel = 4;
    s.raygen.viewportFraction = 96.0f / 1024.0f;
    s.raygen.seed = seed;
    if (name == "ao_fig12") {
        s.kind = Kind::Ao;
    } else if (name == "ao_paperscale") {
        s.kind = Kind::Ao;
        s.scenes = {SceneId::Sibenik};
        s.detail = 1.0f;
        s.raygen.width = 512;
        s.raygen.height = 512;
        s.raygen.samplesPerPixel = 1;
        s.raygen.viewportFraction = 1.0f;
        s.numSms = 8;
    } else if (name == "photon") {
        s.kind = Kind::Photon;
    } else if (name == "pathtrace") {
        s.kind = Kind::PathTrace;
    } else {
        return std::nullopt;
    }
    return s;
}

constexpr int kNumPresets = 2;
const char *const kPresetNames[kNumPresets] = {"baseline", "proposed"};

SimConfig
presetConfig(int preset, const WorkloadSpec &spec)
{
    SimConfig c =
        preset == 0 ? SimConfig::baseline() : SimConfig::proposed();
    c.numSms = spec.numSms;
    return c;
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

/**
 * Host speed reference: the calibration kernel's typical time on the
 * 4-vCPU Xeon VM where benchmark/results was recorded, in a quiet
 * phase of that shared host. Timings are
 * reported as seconds at that speed (see StepTimes).
 */
constexpr double kCalibrationRefNs = 6.0e6;

/**
 * A fixed workload shaped like the simulator's inner loop: a binary heap
 * of pending event times, lookups in a 256 KiB table, and every other
 * step a read from an 8 MiB one. It is benchmark code, so no library
 * change moves it, and on a shared host it slows down together with
 * the simulator. Interleaved with simulation steps over 15 minutes on
 * the results host, step time divided by this kernel's time spread
 * 1.4 % between 30-second windows while raw step time spread 13.4 %.
 */
class Calibrator
{
  public:
    Calibrator() : table_(1u << 16), memory_(1u << 21)
    {
        for (std::size_t i = 0; i < table_.size(); ++i)
            table_[i] = static_cast<std::uint32_t>(i * 40503u);
        for (std::size_t i = 0; i < memory_.size(); ++i)
            memory_[i] = static_cast<std::uint32_t>(i * 2654435761u);
        heap_.reserve(2048);
    }

    /** @return Wall nanoseconds of one run of the kernel. */
    std::int64_t
    run()
    {
        const std::int64_t start = nowNs();
        const auto later = std::greater<std::uint64_t>();
        std::uint32_t x = 7;
        heap_.clear();
        for (int i = 0; i < 2048; ++i) {
            x = x * 1664525u + 1013904223u;
            heap_.push_back(x);
            std::push_heap(heap_.begin(), heap_.end(), later);
        }
        std::uint64_t acc = 0;
        for (int k = 0; k < 120000; ++k) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const std::uint64_t t = heap_.back();
            x = x * 1664525u + 1013904223u;
            const std::uint32_t v = table_[(x ^ t) & (table_.size() - 1)];
            acc += v;
            heap_.back() = t + (v & 255) + 1;
            std::push_heap(heap_.begin(), heap_.end(), later);
            if (v & 1)
                acc ^= memory_[(v * 2654435761u) & (memory_.size() - 1)];
        }
        sink_ += acc; // keeps the loop observable
        return nowNs() - start;
    }

  private:
    std::vector<std::uint32_t> table_;
    std::vector<std::uint32_t> memory_;
    std::vector<std::uint64_t> heap_;
    std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------
// Spans: the benchmark's only timers
// ---------------------------------------------------------------------

/**
 * One timed call into the library. Spans of one (pass, scene, preset)
 * cell share the id prefix "p<pass>/<scene>/<preset>/"; setup spans
 * shared by both presets use "-" as the preset.
 */
struct Span
{
    std::string id;
    std::string parent; //!< "" for a root
    std::string name;   //!< "<layer>.<call>", e.g. "gpu.run"
    std::string layer;
    int pass = 0; //!< 0 = warm-up
    std::string scene;
    std::string preset;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t calibrationNs = 0; //!< kernel time around it (0 = none)

    double
    seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

/**
 * In-memory span store. Spans are always recorded, because their
 * durations are the measurements; --trace only writes them out.
 */
class SpanLog
{
  public:
    /** Time @p body as a child of @p parent; return what it returns. */
    template <class F>
    auto
    timed(const std::string &name, int pass, const std::string &scene,
          const std::string &preset, const std::string &parent, F &&body)
    {
        Span s = make(name, pass);
        s.id = "p" + std::to_string(pass) + "/" + scene + "/" + preset +
               "/" + std::to_string(spans_.size());
        s.parent = parent;
        s.scene = scene;
        s.preset = preset;
        s.startNs = nowNs();
        auto out = body();
        s.endNs = nowNs();
        spans_.push_back(std::move(s));
        return out;
    }

    /**
     * Run @p cal as a span. The spans recorded since the previous
     * calibration get the mean of the two kernel times, so each is
     * scaled by the host speed both before and after it ran.
     */
    void
    calibrate(Calibrator &cal, int pass, const std::string &scene,
              const std::string &preset, const std::string &parent)
    {
        const std::int64_t ns = timed("bench.calibrate", pass, scene,
                                      preset, parent,
                                      [&] { return cal.run(); });
        const std::int64_t mean =
            calibrationNs_ > 0 ? (calibrationNs_ + ns) / 2 : ns;
        for (std::size_t i = sinceCalibration_; i + 1 < spans_.size(); ++i)
            spans_[i].calibrationNs = mean;
        calibrationNs_ = ns;
        sinceCalibration_ = spans_.size();
    }

    /** Open a root span; close it with closeRoot(). @return its id. */
    std::string
    openRoot(const std::string &name, int pass)
    {
        Span s = make(name, pass);
        s.id = "p" + std::to_string(pass) + "/" + name;
        s.startNs = nowNs();
        open_ = spans_.size();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void
    closeRoot()
    {
        spans_[open_].endNs = nowNs();
    }

    /** Self seconds of each span (duration minus its children's). */
    std::vector<double>
    selfSeconds() const
    {
        std::map<std::string, double> child;
        for (const Span &s : spans_)
            if (!s.parent.empty())
                child[s.parent] += s.seconds();
        std::vector<double> self;
        self.reserve(spans_.size());
        for (const Span &s : spans_) {
            const auto it = child.find(s.id);
            self.push_back(s.seconds() -
                           (it == child.end() ? 0.0 : it->second));
        }
        return self;
    }

    const std::vector<Span> &
    spans() const
    {
        return spans_;
    }

  private:
    Span
    make(const std::string &name, int pass) const
    {
        Span s;
        s.name = name;
        s.layer = name.substr(0, name.find('.'));
        s.pass = pass;
        s.calibrationNs = calibrationNs_;
        return s;
    }

    std::vector<Span> spans_;
    std::size_t open_ = 0;
    std::int64_t calibrationNs_ = 0;   //!< latest kernel time
    std::size_t sinceCalibration_ = 0; //!< first span after it
};

void
writeJsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

bool
writeTrace(const std::string &path, const WorkloadSpec &spec,
           const SpanLog &log)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(spec.raygen.seed));
    const std::vector<Span> &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fputs("{\"id\":", f);
        writeJsonString(f, s.id);
        std::fputs(",\"parent\":", f);
        if (s.parent.empty())
            std::fputs("null", f);
        else
            writeJsonString(f, s.parent);
        std::fputs(",\"name\":", f);
        writeJsonString(f, s.name);
        std::fputs(",\"layer\":", f);
        writeJsonString(f, s.layer);
        std::fprintf(f, ",\"pass\":%d,\"scene\":", s.pass);
        writeJsonString(f, s.scene);
        std::fputs(",\"preset\":", f);
        writeJsonString(f, s.preset);
        std::fprintf(f,
                     ",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"calibration_ns\":%lld}%s\n",
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.calibrationNs),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------

/** One scene x preset simulation of a pass. */
struct Cell
{
    SimResult result;
    std::vector<std::size_t> waveRays; //!< pathtrace only
    std::string json;
    bool threw = false;
    std::size_t rays = 0; //!< rayResults.size(), kept after releaseRays
};

/** A host-side traversal's answer for one ray. */
struct RefHit
{
    bool closest = false;
    bool hit = false;
    float t = 0.0f;
};

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Any-hit rays must agree on the hit flag, closest-hit rays also on t. */
bool
sameHit(bool hit, float t, const RefHit &ref)
{
    return hit == ref.hit && (!ref.closest || !hit || sameBits(t, ref.t));
}

/** Simulated hits the oracle's answer was replaced with. */
struct AcceptedHits
{
    std::size_t nearer = 0;     //!< real hits the oracle missed
    std::size_t ulpFarther = 0; //!< one ULP past the oracle's hit
};

/** Per-scene facts taken once, in the warm-up pass. */
struct SceneInfo
{
    std::string name;
    std::size_t triangles = 0;
    std::size_t nodes = 0;
    /** The oracle: referenceTrace of every ray each preset traced. */
    std::array<std::vector<RefHit>, kNumPresets> reference;
    /**
     * pathtrace only: each preset's warm-up primitives. Its bounce waves,
     * and so its reference, were built from them.
     */
    std::array<std::vector<std::uint32_t>, kNumPresets> prims;
    AcceptedHits accepted;               //!< see acceptVerifiedHits
    std::size_t traversed = 0;           //!< rays BvhTraversal traced
    std::size_t traversalMismatches = 0; //!< BvhTraversal vs the oracle
};

using Pass = std::vector<std::array<Cell, kNumPresets>>; //!< per scene

/**
 * Free the per-ray results of a checked pass, keeping their count, so
 * that the benchmark holds no pass's rays while the next one runs.
 */
void
releaseRays(Pass &pass)
{
    for (auto &cells : pass)
        for (Cell &c : cells) {
            c.rays = c.result.rayResults.size();
            std::vector<RayResult>().swap(c.result.rayResults);
        }
}

/** Trace every ray with @p trace(ray, closest) -> HitRecord. */
template <class Trace>
std::vector<RefHit>
traceAll(const std::vector<Ray> &rays, Trace &&trace)
{
    std::vector<RefHit> out(rays.size());
    for (std::size_t i = 0; i < rays.size(); ++i) {
        out[i].closest = rays[i].kind != RayKind::Occlusion;
        const HitRecord h = trace(rays[i], out[i].closest);
        out[i].hit = h.hit;
        out[i].t = h.t;
    }
    return out;
}

/**
 * Take a simulated hit as the oracle's answer when it is a real hit,
 * its primitive intersecting the ray at exactly its t, and either
 *  - nearer: the oracle found no hit or, on a closest-hit ray, a
 *    farther one, so the oracle missed it; or
 *  - one ULP farther than the oracle's closest hit.
 *
 * Closest hits can differ by one ULP with the traversal order, either
 * way. On pathtrace at seed 15, LR ray 39962 hits primitive 27812 at
 * t = 0.207504272 with the predictor on, as brute force over every
 * triangle does; the oracle and the baseline give primitive 28792 one
 * ULP farther. At seed 23, LR ray 21460 hits primitive 29222 at
 * t = 0.176912591 with the predictor on; the oracle, the baseline, and
 * brute force give primitive 27813 one ULP nearer. Both kinds are
 * counted and printed, so a change that makes them common shows.
 */
void
acceptVerifiedHits(const std::vector<Ray> &rays,
                   const std::vector<Triangle> &tris,
                   const std::vector<RayResult> &results,
                   std::vector<RefHit> &ref, AcceptedHits &accepted)
{
    const std::size_t n = std::min({rays.size(), results.size(), ref.size()});
    for (std::size_t i = 0; i < n; ++i) {
        const RayResult &r = results[i];
        RefHit &h = ref[i];
        if (!r.hit || r.prim >= tris.size() || sameHit(r.hit, r.t, h))
            continue;
        const bool nearer = !h.hit || (h.closest && r.t < h.t);
        const bool ulp_farther =
            h.hit && h.closest && sameBits(r.t, std::nextafter(h.t, 1e30f));
        HitRecord rec;
        if ((nearer || ulp_farther) &&
            intersectRayTriangle(rays[i], tris[r.prim], rec) &&
            sameBits(rec.t, r.t)) {
            h.hit = true;
            h.t = r.t;
            ++(nearer ? accepted.nearer : accepted.ulpFarther);
        }
    }
}

/**
 * The rays runPathTrace traced for @p cell, in result order: the camera
 * wave, then each bounce wave rebuilt from the previous wave's simulated
 * hits, drawing from the driver's bounce stream (Rng stream 37) in the
 * same order. Stops short if a wave's size differs from the driver's,
 * which the size check then reports.
 */
std::vector<Ray>
pathRays(const Workload &w, const RayGenConfig &raygen, const Cell &cell)
{
    const std::vector<RayResult> &rr = cell.result.rayResults;
    RayBatch wave = generatePrimaryRays(w.scene, raygen);
    Rng rng(raygen.seed, 37);
    std::vector<Ray> all;
    for (std::size_t k = 0; k < cell.waveRays.size(); ++k) {
        const std::size_t first = all.size();
        if (wave.rays.size() != cell.waveRays[k] ||
            first + wave.rays.size() > rr.size())
            break;
        all.insert(all.end(), wave.rays.begin(), wave.rays.end());
        if (k + 1 == cell.waveRays.size())
            break;
        std::vector<PathHit> hits;
        hits.reserve(wave.rays.size());
        for (std::size_t i = first; i < all.size(); ++i)
            hits.push_back(PathHit{rr[i].hit, rr[i].t, rr[i].prim});
        wave = generatePathBounceRays(w.scene, w.bvh, wave.rays, hits, rng);
    }
    return all;
}

/**
 * Run one pass of @p spec, calibrating before each scene's setup, before
 * each preset's run, and at the end. The warm-up pass (pass 0) also
 * traces the oracle reference into @p scenes, in its own spans.
 */
Pass
runPass(const WorkloadSpec &spec, int pass, SpanLog &log, Calibrator &cal,
        std::vector<SceneInfo> &scenes)
{
    Pass cells(spec.scenes.size());
    const std::string root = log.openRoot("bench.pass", pass);
    for (std::size_t si = 0; si < spec.scenes.size(); ++si) {
        const std::string sn = sceneShortName(spec.scenes[si]);
        log.calibrate(cal, pass, sn, "-", root);
        Workload w;
        w.scene = log.timed("scene.make", pass, sn, "-", root, [&] {
            return makeScene(spec.scenes[si], spec.detail);
        });
        const std::vector<Triangle> &tris = w.scene.mesh.triangles();
        w.bvh = log.timed("bvh.build", pass, sn, "-", root,
                          [&] { return BvhBuilder().build(tris); });
        RayBatch batch;
        if (spec.kind != Kind::PathTrace)
            batch = log.timed("rays.gen", pass, sn, "-", root, [&] {
                return spec.kind == Kind::Ao
                           ? generateAoRays(w.scene, w.bvh, spec.raygen)
                           : generatePhotonRays(w.scene, w.bvh,
                                                spec.raygen);
            });

        for (int p = 0; p < kNumPresets; ++p) {
            Cell &cell = cells[si][p];
            const char *pn = kPresetNames[p];
            const SimConfig config = presetConfig(p, spec);
            log.calibrate(cal, pass, sn, pn, root);
            try {
                if (spec.kind == Kind::PathTrace) {
                    PathTraceOutcome out =
                        log.timed("exp.path_trace", pass, sn, pn, root, [&] {
                            return runPathTrace(w, config, spec.raygen);
                        });
                    cell.result = std::move(out.total);
                    cell.waveRays = std::move(out.waveRays);
                } else {
                    Simulation sim =
                        log.timed("gpu.construct", pass, sn, pn, root, [&] {
                            return Simulation(config, w.bvh, tris);
                        });
                    cell.result =
                        log.timed("gpu.run", pass, sn, pn, root,
                                  [&] { return sim.run(batch.rays); });
                }
                cell.json =
                    log.timed("util.to_json", pass, sn, pn, root,
                              [&] { return cell.result.toJson(); });
            } catch (const std::exception &e) {
                std::fprintf(stderr, "rtp_bench: %s/%s pass %d threw: %s\n",
                             sn.c_str(), pn, pass, e.what());
                cell.threw = true;
            }
        }

        if (pass == 0) {
            SceneInfo &info = scenes[si];
            info.name = sn;
            info.triangles = tris.size();
            info.nodes = w.bvh.nodeCount();
            const auto oracle = [&](const std::vector<Ray> &rays,
                                    const std::string &preset) {
                return log.timed("oracle.reference", pass, sn, preset, root,
                                 [&] {
                                     return traceAll(
                                         rays, [&](const Ray &r, bool) {
                                             return referenceTrace(w.bvh,
                                                                   tris, r);
                                         });
                                 });
            };
            std::array<std::vector<Ray>, kNumPresets> waves;
            if (spec.kind == Kind::PathTrace) {
                // Every wave of each preset. The presets' hits may differ
                // (see checkPass), and so may their bounce waves.
                for (int p = 0; p < kNumPresets; ++p) {
                    const Cell &cell = cells[si][p];
                    waves[p] = pathRays(w, spec.raygen, cell);
                    info.reference[p] = oracle(waves[p], kPresetNames[p]);
                    for (const RayResult &r : cell.result.rayResults)
                        info.prims[p].push_back(r.prim);
                }
                batch = generatePrimaryRays(w.scene, spec.raygen);
            } else {
                info.reference[0] = oracle(batch.rays, "-");
                info.reference[1] = info.reference[0];
            }
            for (int p = 0; p < kNumPresets; ++p)
                acceptVerifiedHits(
                    spec.kind == Kind::PathTrace ? waves[p] : batch.rays,
                    tris, cells[si][p].result.rayResults, info.reference[p],
                    info.accepted);
            // The software traversal raygen uses: timed as the host
            // floor for tracing these rays (the camera wave on
            // pathtrace), and compared to the oracle.
            BvhTraversal trav(w.bvh, tris);
            const std::vector<RefHit> swHits =
                log.timed("bvh.traverse", pass, sn, "-", root, [&] {
                    return traceAll(batch.rays, [&](const Ray &r, bool c) {
                        return c ? trav.closestHit(r) : trav.anyHit(r);
                    });
                });
            const std::vector<RefHit> &ref = info.reference[0];
            info.traversed = swHits.size();
            for (std::size_t i = 0; i < std::min(swHits.size(), ref.size());
                 ++i)
                info.traversalMismatches +=
                    sameHit(swHits[i].hit, swHits[i].t, ref[i]) ? 0 : 1;
        }
    }
    log.calibrate(cal, pass, "-", "-", root); // closes the last cell
    log.closeRoot();
    return cells;
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

struct CheckTally
{
    std::uint64_t attempted = 0; //!< rays checked
    std::uint64_t failed = 0;    //!< rays that failed a check
};

/**
 * Check one pass against the oracle and the warm-up pass. A ray fails
 * when it mismatches its preset's oracle reference: the hit flag, and
 * for closest-hit rays t bit for bit. On path tracing the primitive
 * must also equal the warm-up's, because the reference's bounce waves
 * were built from it. Every ray of a cell fails when the cell threw,
 * returned the wrong number of results, or serialised differently from
 * the warm-up.
 *
 * The presets are not compared with each other. Both match the same
 * oracle, so they agree on every ray but two kinds: a ray where one of
 * them gave an accepted hit (acceptVerifiedHits), and on path tracing
 * the rays after a closest-hit tie at exactly the same t,
 * which the predictor may resolve to another primitive
 * (core/reference.hpp allows it). The bounce ray leaving another
 * primitive is another ray, so the presets' later waves differ.
 */
void
checkPass(const WorkloadSpec &spec, const Pass &pass, const Pass &warmup,
          const std::vector<SceneInfo> &scenes, CheckTally &tally)
{
    const bool path = spec.kind == Kind::PathTrace;
    for (std::size_t si = 0; si < pass.size(); ++si) {
        const SceneInfo &info = scenes[si];
        for (int p = 0; p < kNumPresets; ++p) {
            const std::vector<RefHit> &ref = info.reference[p];
            const Cell &cell = pass[si][p];
            const std::vector<RayResult> &rr = cell.result.rayResults;
            const std::size_t rays =
                std::max<std::size_t>({rr.size(), ref.size(), 1});
            tally.attempted += rays;
            if (cell.threw || warmup[si][p].threw ||
                rr.size() != ref.size() ||
                cell.json != warmup[si][p].json) {
                tally.failed += rays;
                continue;
            }
            std::uint64_t bad = 0;
            for (std::size_t i = 0; i < ref.size(); ++i) {
                const bool same = sameHit(rr[i].hit, rr[i].t, ref[i]) &&
                                  (!path || rr[i].prim == info.prims[p][i]);
                bad += same ? 0 : 1;
            }
            tally.failed += bad;
        }
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Python's statistics.quantiles (exclusive method) at fraction @p q. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * (static_cast<double>(v.size()) + 1.0) - 1.0;
    if (pos <= 0.0)
        return v.front();
    if (pos >= static_cast<double>(v.size() - 1))
        return v.back();
    const auto lo = static_cast<std::size_t>(pos);
    return v[lo] + (v[lo + 1] - v[lo]) * (pos - static_cast<double>(lo));
}

/** A host time over the measured passes: median and quartiles. */
struct Timing
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    std::size_t passes = 0;
};

/** Factor from the span's wall time to seconds at reference speed. */
double
calibrationScale(const Span &s)
{
    return s.calibrationNs > 0
               ? kCalibrationRefNs / static_cast<double>(s.calibrationNs)
               : 1.0;
}

/**
 * Self time of every step of the measured passes. A step is one span
 * of a pass, keyed by (call, scene, preset), so the same step recurs
 * once per pass. A timing is the sum, over the steps it covers, of each
 * step's median (or quartile) across the passes.
 *
 * The host is shared: bursts of about a second, and phases of minutes,
 * run up to 1.8x slower. A step median rejects a burst that hits one
 * pass. A slow phase hits every pass of a run, so @p calibrated steps
 * are scaled by kCalibrationRefNs / the mean Calibrator time measured
 * just before and after their cell: seconds at the reference speed.
 */
class StepTimes
{
  public:
    StepTimes(const SpanLog &log, bool calibrated)
    {
        const std::vector<double> self = log.selfSeconds();
        for (std::size_t i = 0; i < self.size(); ++i) {
            const Span &s = log.spans()[i];
            if (s.pass == 0)
                continue; // warm-up
            const double scale = calibrated ? calibrationScale(s) : 1.0;
            steps_[{s.name, s.scene, s.preset}].push_back(self[i] * scale);
            passes_ = std::max(passes_, static_cast<std::size_t>(s.pass));
        }
    }

    /** Timing of the steps whose (name, preset) @p include accepts. */
    template <class Pred>
    Timing
    total(Pred include) const
    {
        Timing t;
        t.passes = passes_;
        for (const auto &[key, secs] : steps_) {
            if (!include(std::get<0>(key), std::get<2>(key)))
                continue;
            t.q1 += quantile(secs, 0.25);
            t.median += quantile(secs, 0.5);
            t.q3 += quantile(secs, 0.75);
        }
        return t;
    }

    /** Timing of the steps named @p name. */
    Timing
    named(const std::string &name) const
    {
        return total([&](const std::string &n, const std::string &) {
            return n == name;
        });
    }

  private:
    std::map<std::tuple<std::string, std::string, std::string>,
             std::vector<double>>
        steps_;
    std::size_t passes_ = 0;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::optional<Timing> timing; //!< quartiles of a host time
};

class MetricSet
{
  public:
    void
    timed(const std::string &name, const std::string &unit,
          const Timing &t)
    {
        metrics_.push_back(Metric{name, t.median, unit, t});
    }

    void
    value(const std::string &name, const std::string &unit, double v)
    {
        metrics_.push_back(Metric{name, v, unit, std::nullopt});
    }

    const Metric *
    find(const std::string &name) const
    {
        for (const Metric &m : metrics_)
            if (m.name == name)
                return &m;
        return nullptr;
    }

    const std::vector<Metric> &
    all() const
    {
        return metrics_;
    }

  private:
    std::vector<Metric> metrics_;
};

std::uint32_t
fnv1a(std::uint32_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 16777619u;
    }
    return h;
}

/** @return The @p field line ("VmRSS", "VmHWM") of /proc/self/status, MiB. */
double
statusMb(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0.0;
    while (status >> key) {
        if (key == field + ":") {
            status >> kib;
            break;
        }
        status.ignore(1 << 16, '\n');
    }
    return kib / 1024.0;
}

/**
 * Return freed heap to the system and reset the kernel's peak-RSS mark
 * (VmHWM) to the current resident size, so that VmHWM minus the
 * returned size is the memory the library added on top of what the
 * benchmark itself holds.
 *
 * @return The resident size after the reset, MiB.
 */
double
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    if (!clear)
        std::fprintf(stderr, "rtp_bench: cannot reset the peak RSS; "
                             "peak_rss_mb includes the warm-up\n");
    return statusMb("VmRSS");
}

double
raysOf(const Pass &pass, int preset)
{
    double n = 0.0;
    for (const auto &cells : pass)
        n += static_cast<double>(cells[preset].rays);
    return n;
}

/** Per-preset simulated totals over the scenes of one pass. */
struct PresetTotals
{
    double cycles = 0.0;
    double effWeighted = 0.0; //!< SIMT efficiency x cycles
    double postMerge = 0.0;
    StatGroup stats;
    StatGroup mem;
};

PresetTotals
totals(const Pass &pass, int preset)
{
    PresetTotals t;
    for (const auto &cells : pass) {
        const SimResult &r = cells[preset].result;
        t.cycles += static_cast<double>(r.cycles);
        t.effWeighted += r.simtEfficiency * static_cast<double>(r.cycles);
        t.postMerge += static_cast<double>(r.postMergeAccesses());
        t.stats.merge(r.stats);
        t.mem.merge(r.memStats);
    }
    return t;
}

double
count(const StatGroup &g, const char *name)
{
    return static_cast<double>(g.get(name));
}

double
hitRate(const StatGroup &g, const std::string &level)
{
    const double hits = static_cast<double>(g.get(level + ".hits"));
    return ratio(hits,
                 hits + static_cast<double>(g.get(level + ".misses")));
}

bool
isSetup(const std::string &name)
{
    return name == "scene.make" || name == "bvh.build" ||
           name == "rays.gen" || name == "gpu.construct";
}

bool
isRun(const std::string &name)
{
    return name == "gpu.run" || name == "exp.path_trace";
}

/** Rays per second from a run timing (its quartiles swap). */
Timing
throughput(double rays, const Timing &run)
{
    return Timing{ratio(rays, run.q3), ratio(rays, run.median),
                  ratio(rays, run.q1), run.passes};
}

Timing
runTiming(const StepTimes &steps, int preset)
{
    return steps.total([preset](const std::string &n,
                                const std::string &p) {
        return isRun(n) && p == kPresetNames[preset];
    });
}

/** The end-to-end host timings from @p steps, names prefixed. */
void
addEndToEnd(MetricSet &m, const StepTimes &steps, const Pass &last,
            const std::string &prefix)
{
    m.timed(prefix + "rays_per_s_proposed", "rays/s",
            throughput(raysOf(last, 1), runTiming(steps, 1)));
    m.timed(prefix + "rays_per_s_baseline", "rays/s",
            throughput(raysOf(last, 0), runTiming(steps, 0)));
    m.timed(prefix + "pipeline_s", "s",
            steps.total([](const std::string &n, const std::string &) {
                return n.rfind("oracle.", 0) != 0 && n != "bench.calibrate";
            }));
    m.timed(prefix + "setup_s", "s",
            steps.total([](const std::string &n, const std::string &) {
                return isSetup(n);
            }));
}

MetricSet
computeMetrics(const WorkloadSpec &spec, const SpanLog &log,
               const StepTimes &steps, const StepTimes &wall,
               const Pass &last, const std::vector<SceneInfo> &scenes,
               double peak_rss_mb)
{
    MetricSet m;
    addEndToEnd(m, steps, last, "");
    m.value("peak_rss_mb", "MB", peak_rss_mb);
    // The same timings uncalibrated, and the host speed they reflect.
    addEndToEnd(m, wall, last, "wall.");
    std::vector<double> cal_ms;
    for (const Span &s : log.spans())
        if (s.pass > 0 && s.name == "bench.calibrate")
            cal_ms.push_back(s.seconds() * 1e3);
    m.value("bench.calibration_ms", "ms", quantile(cal_ms, 0.5));

    // Host time per layer.
    const PresetTotals tb = totals(last, 0);
    const PresetTotals tp = totals(last, 1);
    double ref_s = 0.0, ref_rays = 0.0, mismatches = 0.0;
    double nearer = 0.0, ulp_farther = 0.0;
    for (const Span &s : log.spans())
        if (s.name == "bvh.traverse")
            ref_s += s.seconds() * calibrationScale(s);
    for (const SceneInfo &si : scenes) {
        ref_rays += static_cast<double>(si.traversed);
        mismatches += static_cast<double>(si.traversalMismatches);
        nearer += static_cast<double>(si.accepted.nearer);
        ulp_farther += static_cast<double>(si.accepted.ulpFarther);
    }
    const double ref_ns = ratio(ref_s * 1e9, ref_rays);
    const Timing run[kNumPresets] = {runTiming(steps, 0),
                                     runTiming(steps, 1)};
    const double run_ns[kNumPresets] = {run[0].median * 1e9,
                                        run[1].median * 1e9};
    const double base_ns_per_ray = ratio(run_ns[0], raysOf(last, 0));
    const double prop_ns_per_ray = ratio(run_ns[1], raysOf(last, 1));
    m.timed("scene.make_s", "s", steps.named("scene.make"));
    m.timed("bvh.build_s", "s", steps.named("bvh.build"));
    if (spec.kind != Kind::PathTrace) {
        // runPathTrace generates rays and constructs inside the call.
        m.timed("rays.gen_s", "s", steps.named("rays.gen"));
        m.timed("gpu.construct_s", "s", steps.named("gpu.construct"));
    }
    m.value("bvh.ref_ns_per_ray", "ns/ray", ref_ns);
    m.value("bvh.traversal_mismatches", "count", mismatches);
    m.value("oracle.nearer_hits", "count", nearer);
    m.value("oracle.ulp_farther_hits", "count", ulp_farther);
    m.timed("gpu.run_s.baseline", "s", run[0]);
    m.timed("gpu.run_s.proposed", "s", run[1]);
    m.value("gpu.ns_per_node_fetch.baseline", "ns",
            ratio(run_ns[0], count(tb.stats, "ray_node_fetches")));
    m.value("gpu.ns_per_node_fetch.proposed", "ns",
            ratio(run_ns[1], count(tp.stats, "ray_node_fetches")));
    m.value("gpu.model_overhead_x", "x", ratio(base_ns_per_ray, ref_ns));
    m.value("core.host_cost_x", "x",
            ratio(prop_ns_per_ray, base_ns_per_ray));
    m.timed("util.to_json_s", "s", steps.named("util.to_json"));

    // Simulated statistics: deterministic for a seed.
    std::uint32_t digest = 2166136261u;
    std::vector<double> speedups;
    for (const auto &cells : last) {
        for (const Cell &c : cells)
            digest = fnv1a(digest, c.json);
        speedups.push_back(
            ratio(static_cast<double>(cells[0].result.cycles),
                  static_cast<double>(cells[1].result.cycles)));
    }
    m.value("gpu.cycles.baseline", "cycles", tb.cycles);
    m.value("gpu.cycles.proposed", "cycles", tp.cycles);
    m.value("gpu.sim_digest", "fnv1a32", digest);
    for (int p = 0; p < kNumPresets; ++p) {
        const PresetTotals &t = p == 0 ? tb : tp;
        const std::string sfx = std::string(".") + kPresetNames[p];
        const Histogram *lat = t.stats.histogram("ray_latency_cycles");
        m.value("rtunit.box_tests" + sfx, "count",
                count(t.stats, "box_tests"));
        m.value("rtunit.tri_tests" + sfx, "count",
                count(t.stats, "tri_tests"));
        m.value("rtunit.node_fetches" + sfx, "count",
                count(t.stats, "ray_node_fetches"));
        m.value("rtunit.stack_spills" + sfx, "count",
                count(t.stats, "stack_spills"));
        m.value("rtunit.simt_efficiency" + sfx, "ratio",
                ratio(t.effWeighted, t.cycles));
        m.value("rtunit.ray_latency_p50_cycles" + sfx, "cycles",
                lat ? lat->percentile(50.0) : 0.0);
    }
    const double done = count(tp.stats, "rays_completed");
    const Histogram *restart =
        tp.stats.histogram("mispredict_restart_cycles");
    m.value("core.predicted_rate", "ratio",
            ratio(count(tp.stats, "rays_predicted"), done));
    m.value("core.verified_rate", "ratio",
            ratio(count(tp.stats, "rays_verified"), done));
    m.value("core.wasted_fetch_frac", "ratio",
            ratio(count(tp.stats, "wasted_pred_fetches"),
                  count(tp.stats, "ray_node_fetches")));
    m.value("core.restart_cycles", "cycles",
            restart ? static_cast<double>(restart->sum()) : 0.0);
    m.value("core.repacked_warps", "count",
            count(tp.stats, "repacked_warps"));
    m.value("core.sim_speedup", "x", geomean(speedups));
    for (int p = 0; p < kNumPresets; ++p) {
        const PresetTotals &t = p == 0 ? tb : tp;
        const std::string sfx = std::string(".") + kPresetNames[p];
        const double row_hits = count(t.mem, "dram.row_hits");
        const Histogram *miss = t.mem.histogram("l1.miss_latency");
        m.value("mem.l1_hit_rate" + sfx, "ratio", hitRate(t.mem, "l1"));
        m.value("mem.l2_hit_rate" + sfx, "ratio", hitRate(t.mem, "l2"));
        m.value("mem.dram_accesses" + sfx, "count",
                count(t.mem, "dram.accesses"));
        m.value("mem.dram_row_hit_rate" + sfx, "ratio",
                ratio(row_hits,
                      row_hits + count(t.mem, "dram.row_misses")));
        m.value("mem.l1_miss_latency_mean_cycles" + sfx, "cycles",
                miss ? miss->mean() : 0.0);
        m.value("mem.post_merge_accesses" + sfx, "count", t.postMerge);
    }

    // Input size: fixed by the workload (rays also by the seed).
    double tris = 0.0, nodes = 0.0, waves = 0.0;
    for (const SceneInfo &si : scenes) {
        tris += static_cast<double>(si.triangles);
        nodes += static_cast<double>(si.nodes);
    }
    for (const auto &cells : last)
        waves += cells[1].waveRays.empty()
                     ? 1.0
                     : static_cast<double>(cells[1].waveRays.size());
    m.value("scene.triangles", "count", tris);
    m.value("bvh.nodes", "count", nodes);
    m.value("rays.count", "count", raysOf(last, 1));
    m.value("exp.waves", "count", waves);
    return m;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
printMetric(const std::string &workload, const Metric &m)
{
    std::printf("%s %s %.10g %s", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    if (m.timing)
        std::printf(" q1=%.10g q3=%.10g n=%zu", m.timing->q1, m.timing->q3,
                    m.timing->passes);
    std::printf("\n");
}

/** The result line: correctness plus every metric. */
void
printResultJson(const MetricSet &m, const CheckTally &tally)
{
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    const char *sep = "";
    for (const Metric &metric : m.all()) {
        std::printf("%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}", sep,
                    metric.name.c_str(), metric.value, metric.unit.c_str());
        sep = ",";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: rtp_bench --workload "
                 "ao_fig12|ao_paperscale|photon|pathtrace --seed N\n"
                 "                 [--seconds S] [--trace FILE]\n");
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (!s || *s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_path;
    std::uint64_t seed = 0, seconds = 10;
    bool have_seed = false;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        bool ok = true;
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            ok = have_seed = parseUnsigned(val, seed);
        else if (flag == "--seconds")
            ok = parseUnsigned(val, seconds);
        else if (flag == "--trace")
            trace_path = val;
        else
            ok = false;
        if (!ok)
            return usage();
    }
    const std::optional<WorkloadSpec> spec_opt = makeSpec(workload, seed);
    if (!spec_opt || !have_seed)
        return usage();
    const WorkloadSpec &spec = *spec_opt;

    SpanLog log;
    Calibrator cal;
    std::vector<SceneInfo> scenes(spec.scenes.size());
    CheckTally tally;

    // Later passes are checked against the warm-up's JSON and threw
    // flags only, so its rays go before the measured passes start.
    Pass warmup = runPass(spec, 0, log, cal, scenes);
    log.openRoot("oracle.check", 0);
    checkPass(spec, warmup, warmup, scenes, tally);
    log.closeRoot();
    releaseRays(warmup);
    const double held_mb = resetPeakRss();

    Pass last;
    int measured = 0;
    const std::int64_t start = nowNs();
    do {
        last = runPass(spec, ++measured, log, cal, scenes);
        log.openRoot("oracle.check", measured);
        checkPass(spec, last, warmup, scenes, tally);
        log.closeRoot();
        releaseRays(last);
    } while (static_cast<double>(nowNs() - start) * 1e-9 <
             static_cast<double>(seconds));

    const StepTimes steps(log, true);
    const MetricSet metrics =
        computeMetrics(spec, log, steps, StepTimes(log, false), last, scenes,
                       statusMb("VmHWM") - held_mb);
    const std::string &w = spec.name;
    std::printf("# rtp_bench workload=%s seed=%llu: %d measured passes "
                "after 1 warm-up; closed loop, 1 client, 1 thread\n",
                w.c_str(), static_cast<unsigned long long>(seed),
                measured);
    for (const Metric &m : metrics.all())
        printMetric(w, m);
    for (std::size_t si = 0; si < last.size(); ++si)
        for (int p = 0; p < kNumPresets; ++p)
            std::printf("%s gpu.cycles.%s.%s %llu cycles\n", w.c_str(),
                        kPresetNames[p], scenes[si].name.c_str(),
                        static_cast<unsigned long long>(
                            last[si][p].result.cycles));
    // Only Figure 12 (AO) has a paper reference to validate against.
    if (w == "ao_fig12")
        std::printf("%s paper_gap_pp %.1f pp\n", w.c_str(),
                    std::fabs((metrics.find("core.sim_speedup")->value -
                               1.0) * 100.0 -
                              kPaperAoSpeedupPct));
    else
        std::printf("%s paper_gap_pp unvalidated pp\n", w.c_str());
    std::printf("%s failed_ray_frac %.10g ratio\n", w.c_str(),
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)));

    bool trace_ok = true;
    if (!trace_path.empty()) {
        // Each layer's self time and its share of pipeline_s.
        std::set<std::string> layers;
        for (const Span &s : log.spans())
            layers.insert(s.layer);
        const double pipeline = metrics.find("pipeline_s")->value;
        for (const std::string &layer : layers) {
            const Timing t =
                steps.total([&](const std::string &n, const std::string &) {
                    return n.compare(0, layer.size() + 1, layer + ".") == 0;
                });
            std::printf("%s self.%s_s %.10g s q1=%.10g q3=%.10g n=%zu "
                        "share=%.2f%%\n",
                        w.c_str(), layer.c_str(), t.median, t.q1, t.q3,
                        t.passes, 100.0 * ratio(t.median, pipeline));
        }
        trace_ok = writeTrace(trace_path, spec, log);
        if (!trace_ok)
            std::fprintf(stderr, "rtp_bench: cannot write %s\n",
                         trace_path.c_str());
    }

    printResultJson(metrics, tally);
    return tally.failed == 0 && trace_ok ? 0 : 1;
}
