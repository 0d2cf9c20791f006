#include "gpu/simulator.hpp"

#include "gpu/differential.hpp"
#include "gpu/shard.hpp"
#include "util/check.hpp"
#include "util/observer.hpp"
#include "util/schema.hpp"
#include "util/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace rtp {

double
SimResult::predictedRate() const
{
    auto done = stats.get("rays_completed");
    return done ? static_cast<double>(stats.get("rays_predicted")) / done
                : 0.0;
}

double
SimResult::verifiedRate() const
{
    auto done = stats.get("rays_completed");
    return done ? static_cast<double>(stats.get("rays_verified")) / done
                : 0.0;
}

double
SimResult::hitRate() const
{
    auto done = stats.get("rays_completed");
    return done ? static_cast<double>(stats.get("rays_hit")) / done : 0.0;
}

std::uint64_t
SimResult::totalMemAccesses() const
{
    return stats.get("ray_node_fetches") +
           stats.get("ray_tri_fetches") + stats.get("stack_spills");
}

std::uint64_t
SimResult::postMergeAccesses() const
{
    return stats.get("mem_node_accesses") +
           stats.get("mem_tri_accesses") +
           stats.get("mem_stack_accesses");
}

void
SimResult::toJson(std::ostream &os) const
{
    auto num = [&os](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << buf;
    };
    os << "{\"schema_version\":" << kResultSchemaVersion;
    os << ",\"cycles\":" << cycles;
    os << ",\"rays\":" << rayResults.size();
    os << ",\"predicted_rate\":";
    num(predictedRate());
    os << ",\"verified_rate\":";
    num(verifiedRate());
    os << ",\"hit_rate\":";
    num(hitRate());
    os << ",\"total_mem_accesses\":" << totalMemAccesses();
    os << ",\"post_merge_accesses\":" << postMergeAccesses();
    os << ",\"simt_efficiency\":";
    num(simtEfficiency);
    os << ",\"avg_busy_banks\":";
    num(avgBusyBanks);
    os << ",\"stats\":";
    stats.toJson(os);
    os << ",\"mem_stats\":";
    memStats.toJson(os);
    os << "}";
}

std::string
SimResult::toJson() const
{
    std::ostringstream os;
    toJson(os);
    return os.str();
}

namespace {

/** Per-SM ray assignment produced by distributeRays. */
struct RayDistribution
{
    std::vector<std::vector<Ray>> rays;
    std::vector<std::vector<std::uint32_t>> ids;
};

/**
 * Round-robin warp-sized chunks across SMs, preserving intra-chunk ray
 * order (consecutive rays share a warp, like consecutive threads of
 * the CUDA kernel in Section 5.1.1). Per-SM counts are precomputed so
 * each vector is reserved exactly once instead of growing push-by-push
 * on every run.
 */
RayDistribution
distributeRays(const std::vector<Ray> &rays, std::uint32_t warp,
               std::uint32_t num_sms)
{
    RayDistribution d;
    d.rays.resize(num_sms);
    d.ids.resize(num_sms);

    std::vector<std::size_t> counts(num_sms, 0);
    std::uint32_t chunk = 0;
    for (std::size_t i = 0; i < rays.size(); i += warp, ++chunk)
        counts[chunk % num_sms] += std::min<std::size_t>(
            warp, rays.size() - i);
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        d.rays[s].reserve(counts[s]);
        d.ids[s].reserve(counts[s]);
    }

    chunk = 0;
    for (std::size_t i = 0; i < rays.size(); i += warp, ++chunk) {
        std::uint32_t sm = chunk % num_sms;
        for (std::size_t j = i; j < std::min(rays.size(), i + warp);
             ++j) {
            d.rays[sm].push_back(rays[j]);
            d.ids[sm].push_back(static_cast<std::uint32_t>(j));
        }
    }

    std::size_t distributed = 0;
    for (std::uint32_t s = 0; s < num_sms; ++s)
        distributed += d.rays[s].size();
    assert(distributed == rays.size() &&
           "every submitted ray must be assigned to exactly one SM");
    if (distributed != rays.size())
        throw std::logic_error(
            "distributeRays: distributed " +
            std::to_string(distributed) + " of " +
            std::to_string(rays.size()) + " rays");
    return d;
}

/** Stuck-unit failure, with everything a reproducer needs. */
[[noreturn]] void
throwStuckUnit(std::uint32_t sm, Cycle now, std::uint64_t outstanding)
{
    throw std::runtime_error(
        "runEventLoop: RT unit for SM " + std::to_string(sm) +
        " is stuck — unfinished with an empty event queue at cycle " +
        std::to_string(now) + " (" + std::to_string(outstanding) +
        " outstanding rays)");
}

/**
 * The sequential reference event loop: always advance the SM with the
 * earliest pending event, ties to the lowest SM index. The sharded
 * loop reproduces exactly this order at the shared-memory seam, so
 * this loop stays selectable (simThreads = 1) as the equivalence
 * baseline.
 */
void
runSequentialLoop(std::vector<std::unique_ptr<RtUnit>> &units,
                  TelemetrySampler *telemetry)
{
    // A unit only ever pushes events into its OWN queue, so once the
    // leader is chosen it can be stepped repeatedly — without
    // rescanning — until its next event is no longer globally
    // earliest. Ties break to the lowest SM index, exactly as a full
    // rescan would.
    std::size_t n = units.size();
    Cycle sim_now = 0; //!< cycle of the most recently chosen event
    while (true) {
        RtUnit *next = nullptr;
        std::size_t next_idx = 0;
        Cycle best = ~0ull;
        bool any_unfinished = false;
        std::uint64_t outstanding = 0;
        for (std::size_t i = 0; i < n; ++i) {
            RtUnit *rt = units[i].get();
            if (rt->finished())
                continue;
            any_unfinished = true;
            outstanding += rt->outstandingRays();
            // An unfinished unit with no pending events can never make
            // progress; without this check the loop would either read
            // an empty priority queue (undefined behaviour in release
            // builds) or spin forever. Fail loudly instead.
            if (!rt->hasEvents())
                throwStuckUnit(static_cast<std::uint32_t>(i), sim_now,
                               rt->outstandingRays());
            Cycle c = rt->nextEventCycle();
            if (c < best) {
                best = c;
                next = rt;
                next_idx = i;
            }
        }
        if (!next) {
            if (any_unfinished)
                throw std::runtime_error(
                    "runEventLoop: no runnable RT unit but rays "
                    "remain at cycle " +
                    std::to_string(sim_now) + " (" +
                    std::to_string(outstanding) +
                    " outstanding rays)");
            break;
        }
        sim_now = best;

        // Runner-up: the earliest event among the OTHER units. Frozen
        // during the batch because no other unit's queue can change.
        Cycle others = ~0ull;
        std::size_t others_idx = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (i == next_idx || units[i]->finished())
                continue;
            Cycle c = units[i]->nextEventCycle();
            if (c < others) {
                others = c;
                others_idx = i;
            }
        }

        do {
            // The leader's next event is the globally earliest, so
            // every event before a period boundary has been processed
            // by the time the boundary is crossed here: each sample
            // observes a deterministic start-of-cycle state regardless
            // of batching.
            if (telemetry)
                telemetry->sampleUpTo(next->nextEventCycle());
            next->step();
        } while (!next->finished() && next->hasEvents() &&
                 (next->nextEventCycle() < others ||
                  (next->nextEventCycle() == others &&
                   next_idx < others_idx)));
    }
}

/**
 * The sharded event loop: each worker owns the SMs congruent to its
 * index mod the worker count and advances them with the same local
 * earliest-(cycle, sm) rule the sequential loop uses globally. Shared
 * L2/DRAM accesses synchronise through the ShardGate (see
 * gpu/shard.hpp), so the shared levels observe the exact sequential
 * order and every output — stats, trace, telemetry, checker — is
 * byte-identical to simThreads = 1. The trace and profiler need nothing
 * from this loop: each SM reports through its own observer port, which
 * keys its events by the step that emitted them (util/observer.hpp).
 *
 * Telemetry turns the sampling period into a cycle horizon: workers
 * process every event strictly below the next sample boundary, park at
 * a barrier, the driver samples (observing exactly the all-events-
 * below-the-boundary state the sequential loop samples), advances the
 * horizon, and releases the workers. Without telemetry there is a
 * single infinite horizon and workers run to completion barrier-free.
 */
void
runShardedLoop(std::vector<std::unique_ptr<RtUnit>> &units,
               MemorySystem &mem, TelemetrySampler *telemetry,
               std::uint32_t num_workers)
{
    const std::uint32_t num_sms =
        static_cast<std::uint32_t>(units.size());
    ShardGate gate(num_sms);
    mem.setShardGate(&gate);

    // Initial progress: next event cycle, or done for idle SMs.
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        RtUnit *rt = units[s].get();
        if (rt->finished())
            gate.setProgress(s, ShardGate::kDone);
        else if (!rt->hasEvents())
            throwStuckUnit(s, 0, rt->outstandingRays());
        else
            gate.setProgress(s, rt->nextEventCycle());
    }

    // Horizon barrier: hand-rolled so the main thread can run the
    // sampler between epochs while every worker is parked.
    std::mutex m;
    std::condition_variable cv_worker, cv_main;
    std::size_t parked = 0;
    std::uint64_t epoch = 0;
    bool done = false;
    Cycle horizon =
        telemetry ? telemetry->nextSampleCycle() : ShardGate::kDone;
    std::vector<std::exception_ptr> errors(num_workers);

    // One epoch of local leader-stepping: run every owned event with
    // cycle < the epoch's horizon.
    auto run_epoch = [&](const std::vector<std::uint32_t> &mine,
                         Cycle h) {
        Cycle last_stepped = 0;
        while (true) {
            if (gate.aborted())
                throw ShardAbort{};
            RtUnit *next = nullptr;
            std::uint32_t next_sm = 0;
            Cycle best = ShardGate::kDone;
            for (std::uint32_t s : mine) {
                RtUnit *rt = units[s].get();
                if (rt->finished())
                    continue;
                if (!rt->hasEvents())
                    throwStuckUnit(s, last_stepped,
                                   rt->outstandingRays());
                // `mine` ascends, so `<` keeps the lowest SM on ties —
                // the same tie-break the sequential loop applies.
                Cycle c = rt->nextEventCycle();
                if (c < best) {
                    best = c;
                    next = rt;
                    next_sm = s;
                }
            }
            if (!next || best >= h)
                return;
            last_stepped = best;
            // progress[next_sm] == best already (published after the
            // previous step), so waitTurn inside any shared access of
            // this step sees the correct key.
            next->step();
            if (next->finished())
                gate.setProgress(next_sm, ShardGate::kDone);
            else if (!next->hasEvents()) {
                gate.setProgress(next_sm, ShardGate::kDone);
                throwStuckUnit(next_sm, best,
                               next->outstandingRays());
            } else
                gate.setProgress(next_sm, next->nextEventCycle());
        }
    };

    auto worker_fn = [&](std::uint32_t w) {
        std::vector<std::uint32_t> mine;
        for (std::uint32_t s = w; s < num_sms; s += num_workers)
            mine.push_back(s);
        bool erred = false;
        Cycle h;
        {
            std::unique_lock<std::mutex> lk(m);
            h = horizon;
        }
        while (true) {
            if (!erred) {
                try {
                    run_epoch(mine, h);
                } catch (const ShardAbort &) {
                    erred = true;
                } catch (...) {
                    errors[w] = std::current_exception();
                    gate.requestAbort();
                    erred = true;
                }
                if (erred)
                    // Nobody may wait on a dead worker's SMs: publish
                    // "done" so other workers drain instead of hanging,
                    // then keep participating in barriers so the park
                    // accounting stays balanced until the driver stops.
                    for (std::uint32_t s : mine)
                        gate.setProgress(s, ShardGate::kDone);
            }
            std::unique_lock<std::mutex> lk(m);
            parked++;
            if (parked == num_workers)
                cv_main.notify_one();
            std::uint64_t e = epoch;
            cv_worker.wait(lk,
                           [&] { return done || epoch != e; });
            if (done)
                return;
            h = horizon;
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(num_workers);
    for (std::uint32_t w = 0; w < num_workers; ++w)
        workers.emplace_back(worker_fn, w);

    {
        std::unique_lock<std::mutex> lk(m);
        while (true) {
            cv_main.wait(lk, [&] { return parked == num_workers; });
            if (gate.aborted())
                break;
            Cycle earliest = ShardGate::kDone;
            for (std::uint32_t s = 0; s < num_sms; ++s)
                earliest = std::min(earliest, gate.progress(s));
            if (earliest == ShardGate::kDone)
                break; // every SM finished
            if (!telemetry) {
                // Without a horizon, workers only park when all their
                // SMs are finished or on abort; pending events here
                // mean the protocol broke.
                gate.requestAbort();
                done = true;
                epoch++;
                cv_worker.notify_all();
                lk.unlock();
                for (std::thread &t : workers)
                    t.join();
                mem.setShardGate(nullptr);
                throw std::logic_error(
                    "runShardedLoop: barrier reached with pending "
                    "events but no sampling horizon");
            }
            // All events < horizon are processed and the earliest
            // pending event is `earliest`, so the observable state is
            // exactly what the sequential loop exposes to
            // sampleUpTo(earliest) before stepping that event.
            telemetry->sampleUpTo(earliest);
            horizon = telemetry->nextSampleCycle();
            parked = 0;
            epoch++;
            cv_worker.notify_all();
        }
        done = true;
        epoch++;
        cv_worker.notify_all();
    }
    for (std::thread &t : workers)
        t.join();
    mem.setShardGate(nullptr);

    for (std::uint32_t w = 0; w < num_workers; ++w)
        if (errors[w])
            std::rethrow_exception(errors[w]);
}

/**
 * Worker count for one run: min(simThreads, numSms), falling back to
 * the sequential loop (0 = sequential) when sharding cannot apply —
 * fewer than two effective workers, or one predictor object bound to
 * several SMs (expert mode), which breaks the per-SM-private-state
 * assumption the shard protocol rests on.
 */
std::uint32_t
effectiveShardWorkers(const SimConfig &config,
                      const std::vector<RayPredictor *> &predictors)
{
    std::uint32_t w =
        std::min<std::uint32_t>(config.simThreads, config.numSms);
    if (w < 2)
        return 0;
    std::unordered_set<const RayPredictor *> seen;
    for (const RayPredictor *p : predictors)
        if (p && !seen.insert(p).second)
            return 0; // shared predictor: sequential fallback
    return w;
}

/**
 * Shared driver: distribute rays, run the global event loop, gather
 * results. @p units holds one RT unit per SM; @p predictors (possibly
 * null entries) are read for stats merging.
 */
SimResult
runEventLoop(std::vector<std::unique_ptr<RtUnit>> &units,
             const std::vector<RayPredictor *> &predictors,
             MemorySystem &mem, const std::vector<Ray> &rays,
             const SimConfig &config, const Bvh &bvh,
             const std::vector<Triangle> &triangles)
{
    std::uint32_t num_sms = static_cast<std::uint32_t>(units.size());
    RayDistribution dist =
        distributeRays(rays, config.rt.warpSize, num_sms);
    std::vector<std::vector<Ray>> &per_sm_rays = dist.rays;
    std::vector<std::vector<std::uint32_t>> &per_sm_ids = dist.ids;
    std::uint32_t shard_workers =
        effectiveShardWorkers(config, predictors);

    InvariantChecker *check = config.check;
    if (check)
        check->setContext(describe(config) + ", " +
                          std::to_string(rays.size()) + " rays");
    RunObservers observers(config.trace, config.profile, check, num_sms,
                           shard_workers >= 2);
    // One attach per run, undone when the run ends or throws: external
    // predictors outlive the run and must not keep its ports.
    auto attach = [&](ObserverPort *ports) {
        mem.setObserver(ports);
        for (std::uint32_t s = 0; s < num_sms; ++s)
            units[s]->setObserver(ports ? ports + s : nullptr);
    };
    struct Detach
    {
        decltype(attach) &undo;
        ~Detach() { undo(nullptr); }
    } detach{attach};
    attach(observers.ports());

    TelemetrySampler *telemetry = config.telemetry;
    if (telemetry) {
        std::vector<const RtUnit *> probes;
        probes.reserve(num_sms);
        for (std::uint32_t s = 0; s < num_sms; ++s)
            probes.push_back(units[s].get());
        telemetry->attach(std::move(probes), &mem);
    }

    for (std::uint32_t s = 0; s < num_sms; ++s) {
        if (!per_sm_rays[s].empty())
            units[s]->submit(std::move(per_sm_rays[s]), per_sm_ids[s]);
    }

    if (shard_workers >= 2)
        runShardedLoop(units, mem, telemetry, shard_workers);
    else
        runSequentialLoop(units, telemetry);

    SimResult result;
    result.rayResults.resize(rays.size());
    double simt_acc = 0.0;
    // Callers may bind one predictor object to several SMs; merge each
    // distinct predictor exactly once or its counters get multiplied by
    // the number of SMs sharing it.
    std::unordered_set<const RayPredictor *> merged_predictors;
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        const RtUnit &rt = *units[s];
        result.cycles = std::max(result.cycles, rt.completionCycle());
        result.stats.merge(rt.stats());
        result.stats.merge(rt.intersectionUnit().stats());
        if (predictors[s] &&
            merged_predictors.insert(predictors[s]).second)
            result.stats.merge(predictors[s]->stats());
        simt_acc += rt.simtEfficiency();
        // Each RT unit returns its rays' results in submission order.
        const auto &rr = rt.results();
        for (std::size_t k = 0; k < per_sm_ids[s].size(); ++k)
            result.rayResults[per_sm_ids[s][k]] = rr[k];
    }
    result.simtEfficiency =
        units.empty() ? 1.0 : simt_acc / units.size();
    result.memStats = mem.aggregateStats();
    result.avgBusyBanks = mem.dram().avgBusyBanks();
    if (telemetry)
        telemetry->finish(result.cycles);
    observers.finish(result.cycles);
    if (check) {
        // End-of-run accounting sweep, then the per-ray oracle: every
        // completed ray must agree with the recursive reference
        // traversal (occlusion: hit flag; closest-hit: flag + bitwise
        // distance).
        for (std::uint32_t s = 0; s < num_sms; ++s)
            units[s]->checkFinalState(*check);
        mem.checkFinalState(*check);
        checkAgainstReference(*check, bvh, triangles, rays,
                              result.rayResults);
    }
    return result;
}

} // namespace

void
PredictorSet::bind(const PredictorConfig &config, std::uint32_t num_sms,
                   const Bvh &bvh, bool preserve_state)
{
    if (predictors_.size() != num_sms) {
        // First bind (or an SM-count change): build fresh predictors.
        predictors_.clear();
        for (std::uint32_t i = 0; i < num_sms; ++i)
            predictors_.push_back(
                std::make_unique<RayPredictor>(config, bvh));
        return;
    }
    for (auto &p : predictors_) {
        p->rebind(bvh);
        if (!preserve_state)
            p->resetTable();
        p->clearStats();
    }
}

void
PredictorSet::resetTables()
{
    for (auto &p : predictors_)
        p->resetTable();
}

PredictorSet
PredictorSet::clone() const
{
    PredictorSet out;
    out.predictors_.reserve(predictors_.size());
    for (const auto &p : predictors_)
        out.predictors_.push_back(std::make_unique<RayPredictor>(*p));
    return out;
}

void
PredictorSet::reset()
{
    for (auto &p : predictors_) {
        p->resetTable();
        p->clearStats();
    }
}

PredictorSetStats
PredictorSet::snapshotStats() const
{
    PredictorSetStats s;
    s.numSms = predictors_.size();
    for (const auto &p : predictors_) {
        s.validEntries += p->table().validEntries();
        s.capacity += p->table().capacity();
    }
    return s;
}

std::vector<RayPredictor *>
PredictorSet::pointers() const
{
    std::vector<RayPredictor *> out;
    out.reserve(predictors_.size());
    for (const auto &p : predictors_)
        out.push_back(p.get());
    return out;
}

Simulation::Simulation(const SimConfig &config, const Bvh &bvh,
                       const std::vector<Triangle> &triangles)
    : config_(config), bvh_(&bvh), triangles_(&triangles)
{
    config_.validate(bvh);
}

Simulation::Simulation(const SimConfig &config, const Bvh &bvh,
                       const std::vector<Triangle> &triangles,
                       PredictorSet &predictors)
    : config_(config), bvh_(&bvh), triangles_(&triangles),
      externalSet_(&predictors), externalMode_(true)
{
    config_.validate(bvh);
}

Simulation::Simulation(const SimConfig &config, const Bvh &bvh,
                       const std::vector<Triangle> &triangles,
                       std::vector<RayPredictor *> predictors)
    : config_(config), bvh_(&bvh), triangles_(&triangles),
      externalPreds_(std::move(predictors)), externalMode_(true)
{
    config_.validate(bvh);
}

SimResult
Simulation::run(const std::vector<Ray> &rays)
{
    MemorySystem mem(config_.memory, config_.numSms);
    std::vector<std::unique_ptr<RayPredictor>> owned;
    std::vector<RayPredictor *> preds(config_.numSms, nullptr);

    if (externalSet_) {
        // Cross-frame state lives in the caller's set; pointers are
        // gathered per run so a bind() between runs takes effect.
        std::vector<RayPredictor *> ext = externalSet_->pointers();
        for (std::uint32_t i = 0;
             i < config_.numSms && i < ext.size(); ++i)
            preds[i] = ext[i];
    } else if (externalMode_) {
        for (std::uint32_t i = 0;
             i < config_.numSms && i < externalPreds_.size(); ++i)
            preds[i] = externalPreds_[i];
    } else if (config_.predictor.enabled) {
        // Self-contained: cold predictors per run, so repeated runs are
        // independent and the call is thread-compatible with other
        // Simulations sharing the scene.
        for (std::uint32_t i = 0; i < config_.numSms; ++i) {
            owned.push_back(std::make_unique<RayPredictor>(
                config_.predictor, *bvh_));
            preds[i] = owned.back().get();
        }
    }

    std::vector<std::unique_ptr<RtUnit>> units;
    for (std::uint32_t i = 0; i < config_.numSms; ++i)
        units.push_back(std::make_unique<RtUnit>(
            config_.rt, *bvh_, *triangles_, mem, i, preds[i]));
    return runEventLoop(units, preds, mem, rays, config_, *bvh_,
                        *triangles_);
}

SimResult
simulate(const Bvh &bvh, const std::vector<Triangle> &triangles,
         const std::vector<Ray> &rays, const SimConfig &config)
{
    return Simulation(config, bvh, triangles).run(rays);
}

SimResult
simulateWithPredictors(const Bvh &bvh,
                       const std::vector<Triangle> &triangles,
                       const std::vector<Ray> &rays,
                       const SimConfig &config,
                       const std::vector<RayPredictor *> &predictors)
{
    return Simulation(config, bvh, triangles, predictors).run(rays);
}

} // namespace rtp
