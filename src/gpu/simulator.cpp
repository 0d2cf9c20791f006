#include "gpu/simulator.hpp"

#include "gpu/differential.hpp"
#include "gpu/shard.hpp"
#include "util/check.hpp"
#include "util/host.hpp"
#include "util/observer.hpp"
#include "util/schema.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

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
 * baseline. Every observed run takes it.
 */
void
runSequentialLoop(std::vector<std::unique_ptr<RtUnit>> &units)
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
        for (std::size_t i = 0; i < n; ++i) {
            RtUnit *rt = units[i].get();
            if (rt->finished())
                continue;
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
        if (!next)
            break; // every unit finished
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
            next->step();
        } while (!next->finished() && next->hasEvents() &&
                 (next->nextEventCycle() < others ||
                  (next->nextEventCycle() == others &&
                   next_idx < others_idx)));
    }
}

/**
 * The sharded loop's workers and the deferred-fill protocol they run
 * (gpu/shard.hpp, mem/memory_system.hpp). Worker w owns the SMs
 * congruent to w mod the worker count. Each worker keeps the rules
 * that make the gate deadlock-free and the output exact:
 *
 * - it applies its SMs' fills in (key, sm) order and blocks only on
 *   the smallest of those keys;
 * - it steps no event, and lets no SM access its L1, at a cycle that
 *   a fill of its own could already have reached (MemorySystem calls
 *   settleDue for the access; settleBefore covers the event);
 * - an SM's progress is the smaller of the cycle of the event it runs
 *   or runs next and the key of its oldest fill, republished after
 *   every change to either.
 *
 * Every method runs on the thread of the worker owning the SM at hand.
 */
class ShardWorkers final : public FillSettler
{
  public:
    ShardWorkers(std::vector<std::unique_ptr<RtUnit>> &units,
                 MemorySystem &mem, ShardGate &gate,
                 std::uint32_t num_workers)
        : units_(units), mem_(mem), gate_(gate), workers_(num_workers)
    {
        for (std::uint32_t s = 0; s < units.size(); ++s) {
            Worker &me = workers_[s % num_workers];
            me.mine.push_back(s);
            me.published.push_back(gate.progress(s));
        }
    }

    /** The SMs worker @p w owns, ascending. */
    const std::vector<std::uint32_t> &
    mine(std::uint32_t w) const
    {
        return workers_[w].mine;
    }

    /** Step SM @p sm's next event, at @p cycle, on worker @p w. */
    void
    step(std::uint32_t w, std::uint32_t sm, Cycle cycle)
    {
        Worker &me = workers_[w];
        me.stepping = sm;
        me.stepCycle = cycle;
        mem_.beginStep(sm, cycle);
        units_[sm]->step();
        me.stepping = kNone;
    }

    /**
     * Publish SM @p sm's progress (see the class comment). While it
     * holds a fill, its progress stays at that fill's key over many
     * steps: storing only changes keeps the slot's cache line shared
     * with the workers that poll it.
     */
    void
    publish(std::uint32_t sm)
    {
        Worker &me = workers_[sm % workers_.size()];
        Cycle &last = me.published[sm / workers_.size()];
        const Cycle p = std::min(floor(sm), mem_.oldestFillKey(sm));
        if (p != last) {
            last = p;
            gate_.setProgress(sm, p);
        }
    }

    void
    settleDue(std::uint32_t sm, Cycle cycle) override
    {
        Worker &me = workers_[sm % workers_.size()];
        while (mem_.fillDue(sm, cycle))
            applyOldest(me, true);
    }

    /**
     * Before worker @p w steps an event at @p cycle: apply every fill of
     * its SMs that could be ready by then. @return true if any was
     * applied; the fills may have queued earlier events.
     */
    bool
    settleBefore(std::uint32_t w, Cycle cycle)
    {
        Worker &me = workers_[w];
        bool applied = false;
        for (std::uint32_t s : me.mine)
            while (mem_.fillDue(s, cycle)) {
                applyOldest(me, true);
                applied = true;
            }
        return applied;
    }

    /** Apply worker @p w's fills while the gate lets them pass now. */
    void
    settleReady(std::uint32_t w)
    {
        Worker &me = workers_[w];
        while (applyOldest(me, false)) {
        }
    }

    /** Apply worker @p w's oldest fill, waiting for its turn.
     *  @return false if it holds none. */
    bool
    drainOne(std::uint32_t w)
    {
        return applyOldest(workers_[w], true);
    }

  private:
    static constexpr std::uint32_t kNone = ~0u;

    struct alignas(64) Worker
    {
        std::vector<std::uint32_t> mine;
        std::vector<Cycle> published; //!< last progress, per SM of mine
        std::uint32_t stepping = kNone; //!< SM inside step(), if any
        Cycle stepCycle = 0;
    };

    /** The cycle of the event SM @p sm runs or runs next. */
    Cycle
    floor(std::uint32_t sm) const
    {
        const Worker &me = workers_[sm % workers_.size()];
        if (me.stepping == sm)
            return me.stepCycle;
        const RtUnit &rt = *units_[sm];
        return rt.finished() || !rt.hasEvents() ? ShardGate::kDone
                                                : rt.nextEventCycle();
    }

    /**
     * Apply the oldest (key, sm) fill among @p me's SMs, waiting for
     * its turn when @p block, else only if the gate lets it pass now.
     * @return true if a fill was applied.
     */
    bool
    applyOldest(Worker &me, bool block)
    {
        std::uint32_t sm = kNone;
        Cycle key = ShardGate::kDone;
        for (std::uint32_t s : me.mine) {
            // `mine` ascends, so `<` keeps the lowest SM on ties.
            Cycle k = mem_.oldestFillKey(s);
            if (k < key) {
                key = k;
                sm = s;
            }
        }
        if (sm == kNone)
            return false;
        if (block)
            gate_.waitTurn(sm, key);
        else if (!gate_.mayEnter(sm, key))
            return false;
        units_[sm]->fillApplied(mem_.applyOldestFill(sm));
        publish(sm);
        return true;
    }

    std::vector<std::unique_ptr<RtUnit>> &units_;
    MemorySystem &mem_;
    ShardGate &gate_;
    std::vector<Worker> workers_;
};

/**
 * The sharded event loop: each worker advances its SMs with the same
 * local earliest-(cycle, sm) rule the sequential loop uses globally.
 * L1-miss fills are deferred within the lookahead and reach the shared
 * L2/DRAM through the ShardGate (ShardWorkers above, gpu/shard.hpp), so
 * the shared levels observe the exact sequential order and every
 * result is byte-identical to simThreads = 1. Observed runs never get
 * here: SimConfig::eventLoopWorkers gives them the sequential loop.
 *
 * Workers run to completion, the driver joins them. A worker that
 * fails requests an abort, so every other worker bails out of its wait
 * instead of waiting on the failed worker's SMs, and the driver
 * rethrows the first error.
 */
void
runShardedLoop(std::vector<std::unique_ptr<RtUnit>> &units,
               MemorySystem &mem, std::uint32_t num_workers)
{
    const std::uint32_t num_sms =
        static_cast<std::uint32_t>(units.size());
    ShardGate gate(num_sms);
    // The settler dies with this frame: unhook it on every exit,
    // throws included.
    struct Unsettle
    {
        MemorySystem &mem;
        ~Unsettle() { mem.setFillSettler(nullptr); }
    } unsettle{mem};

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
    ShardWorkers team(units, mem, gate, num_workers);
    mem.setFillSettler(&team);

    // Local leader-stepping: run every owned event, applying owned
    // fills as they fall due, until every owned SM has finished.
    auto run_worker = [&](std::uint32_t w) {
        const std::vector<std::uint32_t> &mine = team.mine(w);
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
                if (!rt->hasEvents()) {
                    // Every warp may be parked on a deferred fill.
                    if (!mem.hasDeferredFills(s))
                        throwStuckUnit(s, last_stepped,
                                       rt->outstandingRays());
                    continue;
                }
                // `mine` ascends, so `<` keeps the lowest SM on ties —
                // the same tie-break the sequential loop applies.
                Cycle c = rt->nextEventCycle();
                if (c < best) {
                    best = c;
                    next = rt;
                    next_sm = s;
                }
            }
            if (!next) {
                // No event left: apply the remaining fills, which may
                // queue more events.
                if (team.drainOne(w))
                    continue;
                return;
            }
            if (team.settleBefore(w, best))
                continue; // the fills may have queued earlier events
            last_stepped = best;
            // progress[next_sm] <= best already (published after the
            // previous step), so every shared access of this step is
            // keyed at or after what the gate has seen.
            team.step(w, next_sm, best);
            if (!next->finished() && !next->hasEvents() &&
                !mem.hasDeferredFills(next_sm)) {
                gate.setProgress(next_sm, ShardGate::kDone);
                throwStuckUnit(next_sm, best, next->outstandingRays());
            }
            team.publish(next_sm);
            team.settleReady(w);
        }
    };

    // Nobody may wait on a dead worker's SMs: publish "done" so the
    // other workers drain instead of hanging.
    auto publish_done = [&](std::uint32_t w) {
        for (std::uint32_t s : team.mine(w))
            gate.setProgress(s, ShardGate::kDone);
    };
    auto worker_fn = [&](std::uint32_t w) {
        try {
            run_worker(w);
        } catch (const ShardAbort &) {
            publish_done(w);
        } catch (...) {
            gate.requestAbort();
            publish_done(w);
            throw; // runWorkers rethrows the first error after the join
        }
    };
    // A worker returns only once its SMs have finished; the driver's
    // completed-ray count checks that it did.
    runWorkers(num_workers, worker_fn, [&] { gate.requestAbort(); });
}

/**
 * Shared driver: hand each SM its share of @p rays, run the global event
 * loop, merge statistics. @p units holds one RT unit per SM;
 * @p predictors (null when disabled, otherwise one distinct object per
 * SM) are read for stats merging.
 */
SimResult
runEventLoop(std::vector<std::unique_ptr<RtUnit>> &units,
             const std::vector<RayPredictor *> &predictors,
             MemorySystem &mem, const std::vector<Ray> &rays,
             const SimConfig &config, const Bvh &bvh,
             const std::vector<Triangle> &triangles)
{
    std::uint32_t num_sms = static_cast<std::uint32_t>(units.size());
    SimResult result;
    result.rayResults.resize(rays.size());
    // One worker: the sequential loop, which every observed run takes.
    std::uint32_t shard_workers = config.eventLoopWorkers();

    InvariantChecker *check = config.check;
    if (check)
        check->setContext(describe(config) + ", " +
                          std::to_string(rays.size()) + " rays");
    RunObservers observers(config.trace, config.profile, check, num_sms);
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

    // Round-robin warp-sized chunks across SMs, preserving intra-chunk
    // ray order (consecutive rays share a warp, like consecutive threads
    // of the CUDA kernel in Section 5.1.1). Every unit reads its chunks
    // from the caller's batch and writes each result to the ray's slot
    // of result.rayResults; no two units share a slot.
    std::uint64_t submitted = 0;
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        units[s]->submit(rays, s, num_sms, result.rayResults);
        submitted += units[s]->outstandingRays();
    }
    auto require_all = [&](const char *what, std::uint64_t count) {
        if (count != rays.size())
            throw std::logic_error(
                std::string("runEventLoop: ") + what + " " +
                std::to_string(count) + " of " +
                std::to_string(rays.size()) + " rays");
    };
    require_all("the SMs' shares hold", submitted);

    if (shard_workers >= 2)
        runShardedLoop(units, mem, shard_workers);
    else
        runSequentialLoop(units);

    double simt_acc = 0.0;
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        const RtUnit &rt = *units[s];
        result.cycles = std::max(result.cycles, rt.completionCycle());
        result.stats.merge(rt.stats());
        result.stats.merge(rt.intersectionUnit().stats());
        if (predictors[s])
            result.stats.merge(predictors[s]->stats());
        simt_acc += rt.simtEfficiency();
    }
    require_all("the SMs completed", result.stats.get("rays_completed"));
    result.simtEfficiency =
        units.empty() ? 1.0 : simt_acc / units.size();
    result.memStats = mem.aggregateStats();
    result.avgBusyBanks = mem.dram().avgBusyBanks();
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
      externalSet_(&predictors)
{
    config_.validate(bvh);
}

SimResult
Simulation::run(const std::vector<Ray> &rays)
{
    MemorySystem mem(config_.memory, config_.numSms);
    std::vector<std::unique_ptr<RayPredictor>> owned;
    std::vector<RayPredictor *> preds(config_.numSms, nullptr);

    if (config_.predictor.enabled && externalSet_) {
        // Cross-frame state lives in the caller's set; it is checked and
        // its pointers gathered per run so a bind() between runs takes
        // effect.
        if (externalSet_->size() != config_.numSms)
            throw std::invalid_argument(
                "Simulation::run: PredictorSet holds " +
                std::to_string(externalSet_->size()) +
                " predictors but the config has " +
                std::to_string(config_.numSms) +
                " SMs; bind() the set for numSms first");
        preds = externalSet_->pointers();
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

} // namespace rtp
