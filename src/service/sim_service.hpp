/**
 * @file
 * SimService: a persistent in-process multi-tenant simulation job
 * server (ROADMAP item 1 — "simulation as a service").
 *
 * The Simulation facade is request-shaped (config + scene + rays →
 * SimResult); SimService turns it into a long-running server:
 *
 *  - a worker pool sized by the RTP_THREADS / RTP_SIM_THREADS thread
 *    budget (threadBudgetFromEnv) unless overridden in ServiceConfig —
 *    sweep-level workers times per-simulation sharded-loop threads,
 *    the same composition the batch harness uses;
 *  - a bounded queue with admission control: submit() rejects with a
 *    reason (queue full, invalid request, shut down) instead of
 *    blocking or growing without bound;
 *  - fair scheduling: round-robin across tenant ids, FIFO within a
 *    tenant, so one huge offline sweep cannot starve small interactive
 *    batches;
 *  - a keyed registry of warm PredictorSet state
 *    (service/warm_registry.hpp) shared across requests for the same
 *    (scene, config) key — the paper's cross-frame predictor reuse as
 *    a service-level cache — plus a shared WorkloadCache so repeat
 *    requests for a scene never rebuild it;
 *  - versioned JSON job envelopes (JobOutcome::toJson): the SimResult
 *    plus queue wait, service time, dispatch order, and predictor
 *    warmth at admission.
 *
 * Determinism contract: a job's SimResult is byte-identical to a
 * direct Simulation::run with the same (config, scene, rays). For
 * warm-shared jobs the predictor tables carry across same-key jobs;
 * leases are exclusive per key and jobs of ONE tenant run in
 * submission order, so a single tenant's same-key job sequence is
 * byte-identical to a sequential PredictorSet bind();run() loop (the
 * canonical cross-frame pattern). Across tenants only the per-key
 * serialisation is guaranteed, not an order. tests/test_service.cpp
 * locks the equivalence in.
 *
 * Lifetime: the pointers inside a JobRequest (BVH, triangles, rays)
 * must stay valid until the job's outcome has been collected with
 * wait().
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/workload.hpp"
#include "gpu/simulator.hpp"
#include "service/warm_registry.hpp"
#include "util/metrics.hpp"

namespace rtp {

using JobId = std::uint64_t;

/** Lifecycle of an admitted job. */
enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Done,
    Failed,    //!< the simulation threw; see JobOutcome::error
    Cancelled, //!< cancelled while queued (cancel() or shutdownNow())
};

/** @return lower-case state name ("queued", "done", ...). */
const char *jobStateName(JobState state);

/** Server sizing and admission knobs. */
struct ServiceConfig
{
    /** Worker threads; 0 = thread budget's sweepThreads. */
    unsigned workers = 0;

    /** Per-job sharded-loop threads applied to jobs that leave
     *  SimConfig::simThreads at auto; 0 = simThreadsForPool(workers):
     *  RTP_SIM_THREADS, else 1 for a pool of several workers and auto
     *  for a pool of one. */
    unsigned simThreads = 0;

    /** Queued-job bound; submissions beyond it are rejected. */
    std::size_t maxQueued = 64;

    /** Start with dispatch paused (resume() releases the workers) —
     *  lets tests and loadgen build a deterministic queue first. */
    bool startPaused = false;
};

/** One simulation request. */
struct JobRequest
{
    std::string tenant = "default"; //!< fairness + FIFO domain

    /**
     * Scene identity for warm-state keying; empty = never share
     * predictor state. Jobs share warm tables only when sceneKey AND
     * the simulated config (configToJson) match.
     */
    std::string sceneKey;

    const Bvh *bvh = nullptr;
    const std::vector<Triangle> *triangles = nullptr;
    const std::vector<Ray> *rays = nullptr;
    SimConfig config;

    /** Opt out of cross-request predictor sharing for this job. */
    bool shareWarmState = true;
};

/** submit() verdict: admitted with an id, or rejected with a reason. */
struct Admission
{
    bool accepted = false;
    JobId id = 0;
    std::string reason; //!< set when rejected
};

/** Everything a client gets back for one job. */
struct JobOutcome
{
    JobId id = 0;
    std::string tenant;
    JobState state = JobState::Queued;
    SimResult result;    //!< valid when state == Done
    std::string error;   //!< what() of the failure when state == Failed
    std::exception_ptr exception; //!< original exception when Failed

    double queueSeconds = 0.0;   //!< submit → dispatch wall time
    double serviceSeconds = 0.0; //!< dispatch → completion wall time
    std::uint64_t startSeq = 0;  //!< global dispatch order (1-based)

    bool warmShared = false; //!< ran against registry state
    bool warmHit = false;    //!< that state was already trained
    double warmth = 0.0;     //!< table occupancy at admission [0, 1]

    /**
     * Versioned job envelope: schema_version, job metadata, and (when
     * Done) the SimResult JSON. The result portion is byte-identical
     * to SimResult::toJson, so service clients and batch outputs
     * compare directly.
     */
    std::string toJson() const;
};

/** Cumulative service counters (admission + completion + warm cache). */
struct ServiceStats
{
    std::uint64_t submitted = 0; //!< admitted jobs
    std::uint64_t rejected = 0;  //!< admission-control rejections
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    WarmRegistryStats warm;
};

class SimService
{
  public:
    explicit SimService(const ServiceConfig &config = {});

    /** shutdownNow(): queued jobs are cancelled, running ones finish. */
    ~SimService();

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /**
     * Admission-controlled submit. Rejects (never blocks, never
     * throws for request problems) when the queue is full, the request
     * is malformed, the config fails validation against the scene, or
     * the service is shut down.
     */
    Admission submit(const JobRequest &request);

    /**
     * Convenience submit against the service's shared WorkloadCache:
     * builds (once) and reuses the scene, submitting its full AO ray
     * batch. sceneKey is derived from the scene short name.
     */
    Admission submitScene(const std::string &tenant, SceneId scene,
                          const SimConfig &config, bool sorted = false,
                          bool share_warm_state = true);

    /**
     * Block until the job finishes (or was cancelled), then collect
     * and return its outcome. Each admitted job must be collected
     * exactly once; an unknown or already-collected id throws
     * std::invalid_argument.
     */
    JobOutcome wait(JobId id);

    /**
     * Cancel a QUEUED job. @return false when the job is already
     * running, finished, or unknown. The outcome (state Cancelled)
     * must still be collected with wait().
     */
    bool cancel(JobId id);

    /** Pause dispatch (running jobs finish; queued jobs hold). */
    void pause();

    /** Release paused dispatch. */
    void resume();

    /**
     * Block until no job is queued or running. The service keeps
     * accepting during and after a drain. Must not be called while
     * dispatch is paused with a non-empty queue (it could never
     * finish).
     */
    void drain();

    /** Stop accepting, drain, and join the workers. Idempotent. */
    void shutdown();

    /**
     * Stop accepting, cancel every queued job, let running jobs
     * finish, and join the workers. Idempotent.
     */
    void shutdownNow();

    /**
     * Evict the warm predictor state a (sceneKey, config) pair maps
     * to. @return false when absent or leased by a running job (see
     * WarmStateRegistry::evict). Queued jobs against the key simply
     * start cold.
     */
    bool evictWarm(const std::string &scene_key,
                   const SimConfig &config);

    /** Shared per-service scene cache (thread-safe wrapper). */
    const Workload &workload(SceneId id);

    ServiceStats stats() const;

    /**
     * Export the service's observability surface into @p reg:
     * per-tenant job counters (submitted / completed / failed /
     * cancelled / rejected), instantaneous per-tenant queue depth and
     * global running-job gauges, the warm-registry cache counters, the
     * lease-contention counter (scheduler passes that skipped a tenant
     * because its head job's warm key was leased), and per-tenant
     * queue-wait and job-latency histograms in seconds. Wall-clock
     * histograms and gauges are nondeterministic by nature; callers
     * comparing runs byte-for-byte must restrict themselves to the job
     * counters.
     */
    void exportMetrics(MetricsRegistry &reg) const;

    unsigned
    workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** simThreads given to jobs that leave theirs at auto (0 = auto). */
    unsigned
    jobSimThreads() const
    {
        return simThreads_;
    }

    std::size_t queuedCount() const;
    std::size_t runningCount() const;

    /** The warm-state key submit() derives for a request. */
    static std::string warmKey(const std::string &scene_key,
                               const SimConfig &config);

  private:
    struct Job
    {
        JobRequest request;
        JobOutcome outcome;
        std::string warmKey;
        bool useWarm = false;
        bool collected = false;
        std::chrono::steady_clock::time_point submitted;
    };
    using JobPtr = std::shared_ptr<Job>;

    /** Per-tenant observability tallies (mutex_ protects them all). */
    struct TenantTallies
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t rejected = 0;
        HistogramData queueWait{defaultLatencyBounds()};  //!< seconds
        HistogramData jobLatency{defaultLatencyBounds()}; //!< seconds
    };

    void workerLoop();

    /**
     * Round-robin job pick (mutex_ held): scan tenants from rrIndex_,
     * skip a tenant entirely while its head job's warm key is leased
     * (preserves per-tenant FIFO), pop and lease the first runnable
     * head. @return nullptr when nothing is runnable.
     */
    JobPtr nextJobLocked(WarmLease &lease);

    void stopWorkers(bool cancel_queued);

    ServiceConfig config_;
    unsigned simThreads_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable workReady_; //!< submit / resume / release
    std::condition_variable jobDone_;   //!< completion & cancellation
    std::map<std::string, std::deque<JobPtr>> tenantQueues_;
    std::vector<std::string> tenantOrder_; //!< round-robin ring
    std::size_t rrIndex_ = 0;
    std::size_t queued_ = 0;
    std::size_t running_ = 0;
    std::map<JobId, JobPtr> jobs_; //!< uncollected outcomes
    JobId nextId_ = 1;
    std::uint64_t nextStartSeq_ = 1;
    bool paused_ = false;
    bool accepting_ = true;
    bool stopping_ = false;
    bool joined_ = false;
    ServiceStats stats_;
    std::map<std::string, TenantTallies> tenantStats_;
    std::uint64_t leaseContention_ = 0; //!< tenant skips on leased keys

    WarmStateRegistry warm_;
    std::vector<std::thread> workers_;

    std::mutex workloadMutex_;
    WorkloadCache workloads_;
};

} // namespace rtp
