#include "service/sim_service.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/parallel.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace rtp {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

std::string
JobOutcome::toJson() const
{
    std::ostringstream os;
    auto num = [&os](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << buf;
    };
    os << "{\"schema_version\":" << kResultSchemaVersion;
    os << ",\"job_id\":" << id;
    os << ",\"tenant\":\"" << jsonEscape(tenant) << "\"";
    os << ",\"state\":\"" << jobStateName(state) << "\"";
    os << ",\"queue_wait_seconds\":";
    num(queueSeconds);
    os << ",\"service_seconds\":";
    num(serviceSeconds);
    os << ",\"start_seq\":" << startSeq;
    os << ",\"warm_shared\":" << (warmShared ? "true" : "false");
    os << ",\"warm_hit\":" << (warmHit ? "true" : "false");
    os << ",\"warmth_at_admission\":";
    num(warmth);
    if (state == JobState::Failed)
        os << ",\"error\":\"" << jsonEscape(error) << "\"";
    if (state == JobState::Done) {
        os << ",\"result\":";
        result.toJson(os);
    }
    os << "}";
    return os.str();
}

std::string
SimService::warmKey(const std::string &scene_key,
                    const SimConfig &config)
{
    // configToJson covers every simulated knob and excludes host-only
    // ones (simThreads, observers), so two requests share warm state
    // exactly when their simulated behaviour is interchangeable.
    return scene_key + "\n" + configToJson(config);
}

SimService::SimService(const ServiceConfig &config) : config_(config)
{
    // Compose with the batch harness's thread budget unless the caller
    // sized the pool explicitly: sweep-level workers become service
    // workers, and auto jobs get the per-simulation share of this pool.
    const unsigned workers = config_.workers != 0
                                 ? config_.workers
                                 : threadBudgetFromEnv().sweepThreads;
    simThreads_ = config_.simThreads != 0 ? config_.simThreads
                                          : simThreadsForPool(workers);
    paused_ = config_.startPaused;

    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

SimService::~SimService()
{
    shutdownNow();
}

Admission
SimService::submit(const JobRequest &request)
{
    Admission adm;
    std::lock_guard<std::mutex> lk(mutex_);
    if (!accepting_) {
        adm.reason = "service is shut down";
        stats_.rejected++;
        tenantStats_[request.tenant].rejected++;
        return adm;
    }
    if (queued_ >= config_.maxQueued) {
        adm.reason = "queue full (" + std::to_string(queued_) +
                     " jobs queued, limit " +
                     std::to_string(config_.maxQueued) + ")";
        stats_.rejected++;
        tenantStats_[request.tenant].rejected++;
        return adm;
    }
    if (!request.bvh || !request.triangles || !request.rays) {
        adm.reason = "malformed request: bvh, triangles, and rays are "
                     "all required";
        stats_.rejected++;
        tenantStats_[request.tenant].rejected++;
        return adm;
    }
    try {
        request.config.validate(*request.bvh);
    } catch (const std::exception &e) {
        adm.reason = std::string("invalid config: ") + e.what();
        stats_.rejected++;
        tenantStats_[request.tenant].rejected++;
        return adm;
    }

    auto job = std::make_shared<Job>();
    job->request = request;
    job->submitted = std::chrono::steady_clock::now();
    job->useWarm = request.shareWarmState &&
                   !request.sceneKey.empty() &&
                   request.config.predictor.enabled;
    if (job->useWarm)
        job->warmKey = warmKey(request.sceneKey, request.config);
    job->outcome.id = nextId_++;
    job->outcome.tenant = request.tenant;
    job->outcome.state = JobState::Queued;
    job->outcome.warmShared = job->useWarm;

    if (tenantQueues_.find(request.tenant) == tenantQueues_.end())
        tenantOrder_.push_back(request.tenant);
    tenantQueues_[request.tenant].push_back(job);
    jobs_[job->outcome.id] = job;
    queued_++;
    stats_.submitted++;
    tenantStats_[request.tenant].submitted++;

    adm.accepted = true;
    adm.id = job->outcome.id;
    workReady_.notify_one();
    return adm;
}

Admission
SimService::submitScene(const std::string &tenant, SceneId scene,
                        const SimConfig &config, bool sorted,
                        bool share_warm_state)
{
    const Workload &w = workload(scene);
    JobRequest req;
    req.tenant = tenant;
    req.sceneKey =
        w.scene.shortName + (sorted ? "#sorted" : "");
    req.bvh = &w.bvh;
    req.triangles = &w.scene.mesh.triangles();
    req.rays = sorted ? &w.aoSorted.rays : &w.ao.rays;
    req.config = config;
    req.shareWarmState = share_warm_state;
    return submit(req);
}

JobOutcome
SimService::wait(JobId id)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw std::invalid_argument(
            "SimService::wait: unknown or already collected job id " +
            std::to_string(id));
    JobPtr job = it->second;
    jobDone_.wait(lk, [&] {
        JobState s = job->outcome.state;
        return s == JobState::Done || s == JobState::Failed ||
               s == JobState::Cancelled;
    });
    job->collected = true;
    jobs_.erase(id);
    return std::move(job->outcome);
}

bool
SimService::cancel(JobId id)
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    JobPtr job = it->second;
    if (job->outcome.state != JobState::Queued)
        return false;
    auto &queue = tenantQueues_[job->request.tenant];
    for (auto q = queue.begin(); q != queue.end(); ++q) {
        if ((*q)->outcome.id == id) {
            queue.erase(q);
            break;
        }
    }
    job->outcome.state = JobState::Cancelled;
    queued_--;
    stats_.cancelled++;
    tenantStats_[job->request.tenant].cancelled++;
    jobDone_.notify_all();
    return true;
}

void
SimService::pause()
{
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = true;
}

void
SimService::resume()
{
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = false;
    workReady_.notify_all();
}

void
SimService::drain()
{
    std::unique_lock<std::mutex> lk(mutex_);
    jobDone_.wait(lk, [&] { return queued_ == 0 && running_ == 0; });
}

void
SimService::stopWorkers(bool cancel_queued)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        accepting_ = false;
        if (cancel_queued) {
            for (auto &kv : tenantQueues_) {
                for (const JobPtr &job : kv.second) {
                    job->outcome.state = JobState::Cancelled;
                    stats_.cancelled++;
                    tenantStats_[job->request.tenant].cancelled++;
                }
                kv.second.clear();
            }
            queued_ = 0;
            jobDone_.notify_all();
        }
    }
    if (!cancel_queued)
        drain();
    bool do_join = false;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!joined_) {
            joined_ = true;
            do_join = true;
            stopping_ = true;
            workReady_.notify_all();
        }
    }
    if (do_join)
        for (std::thread &t : workers_)
            t.join();
}

void
SimService::shutdown()
{
    stopWorkers(/*cancel_queued=*/false);
}

void
SimService::shutdownNow()
{
    stopWorkers(/*cancel_queued=*/true);
}

bool
SimService::evictWarm(const std::string &scene_key,
                      const SimConfig &config)
{
    return warm_.evict(warmKey(scene_key, config));
}

const Workload &
SimService::workload(SceneId id)
{
    std::lock_guard<std::mutex> lk(workloadMutex_);
    return workloads_.get(id);
}

ServiceStats
SimService::stats() const
{
    ServiceStats out;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        out = stats_;
    }
    out.warm = warm_.stats();
    return out;
}

void
SimService::exportMetrics(MetricsRegistry &reg) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    for (const auto &kv : tenantStats_) {
        MetricLabels tenant{{"tenant", kv.first}};
        const TenantTallies &t = kv.second;
        reg.addCounter("rtp_service_jobs_submitted_total",
                       "Jobs admitted by the service", tenant,
                       static_cast<double>(t.submitted));
        reg.addCounter("rtp_service_jobs_completed_total",
                       "Jobs finished successfully", tenant,
                       static_cast<double>(t.completed));
        reg.addCounter("rtp_service_jobs_failed_total",
                       "Jobs whose simulation threw", tenant,
                       static_cast<double>(t.failed));
        reg.addCounter("rtp_service_jobs_cancelled_total",
                       "Jobs cancelled while queued", tenant,
                       static_cast<double>(t.cancelled));
        reg.addCounter("rtp_service_jobs_rejected_total",
                       "Submissions refused by admission control",
                       tenant, static_cast<double>(t.rejected));
        reg.histogram("rtp_service_queue_wait_seconds",
                      "Submit-to-dispatch wall time", tenant,
                      t.queueWait.bounds)
            .merge(t.queueWait);
        reg.histogram("rtp_service_job_latency_seconds",
                      "Dispatch-to-completion wall time", tenant,
                      t.jobLatency.bounds)
            .merge(t.jobLatency);
    }
    for (const auto &kv : tenantQueues_)
        reg.setGauge("rtp_service_queue_depth",
                     "Jobs currently queued",
                     {{"tenant", kv.first}},
                     static_cast<double>(kv.second.size()));
    reg.setGauge("rtp_service_running_jobs",
                 "Jobs currently executing", {},
                 static_cast<double>(running_));
    reg.addCounter("rtp_service_lease_contention_total",
                   "Scheduler passes that skipped a tenant because its "
                   "head job's warm key was leased",
                   {}, static_cast<double>(leaseContention_));

    WarmRegistryStats w = warm_.stats();
    reg.addCounter("rtp_service_warm_acquires_total",
                   "Warm-state acquisitions by outcome",
                   {{"outcome", "hit"}}, static_cast<double>(w.hits));
    reg.addCounter("rtp_service_warm_acquires_total",
                   "Warm-state acquisitions by outcome",
                   {{"outcome", "miss"}},
                   static_cast<double>(w.misses));
    reg.addCounter("rtp_service_warm_busy_total",
                   "Warm-state acquire refusals (key leased)", {},
                   static_cast<double>(w.busy));
    reg.addCounter("rtp_service_warm_evictions_total",
                   "Warm-state evictions", {},
                   static_cast<double>(w.evictions));
}

std::size_t
SimService::queuedCount() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return queued_;
}

std::size_t
SimService::runningCount() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return running_;
}

SimService::JobPtr
SimService::nextJobLocked(WarmLease &lease)
{
    const std::size_t n = tenantOrder_.size();
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t idx = (rrIndex_ + step) % n;
        auto &queue = tenantQueues_[tenantOrder_[idx]];
        if (queue.empty())
            continue;
        JobPtr job = queue.front();
        if (job->useWarm) {
            // Exclusive per-key lease. A busy key skips the WHOLE
            // tenant (not just this job) so per-tenant FIFO — and with
            // it the deterministic same-key sequence — is preserved.
            if (!warm_.tryAcquire(job->warmKey,
                                  job->request.config.predictor,
                                  job->request.config.numSms,
                                  *job->request.bvh, lease)) {
                leaseContention_++;
                continue;
            }
            job->outcome.warmHit = lease.warmHit;
            job->outcome.warmth = lease.warmth.warmth();
        }
        queue.pop_front();
        rrIndex_ = (idx + 1) % n;
        return job;
    }
    return nullptr;
}

void
SimService::workerLoop()
{
    std::unique_lock<std::mutex> lk(mutex_);
    while (true) {
        workReady_.wait(lk, [&] {
            return stopping_ || (!paused_ && queued_ > 0);
        });
        if (stopping_)
            return;

        WarmLease lease;
        JobPtr job = nextJobLocked(lease);
        if (!job) {
            // Jobs are queued but every runnable head is blocked on a
            // leased warm key; sleep until a release or a submit.
            workReady_.wait(lk);
            continue;
        }

        auto dispatch = std::chrono::steady_clock::now();
        job->outcome.state = JobState::Running;
        job->outcome.startSeq = nextStartSeq_++;
        job->outcome.queueSeconds =
            std::chrono::duration<double>(dispatch - job->submitted)
                .count();
        tenantStats_[job->request.tenant].queueWait.observe(
            job->outcome.queueSeconds);
        queued_--;
        running_++;
        lk.unlock();

        SimConfig config = job->request.config;
        // Same rule as the batch harness: a job that leaves simThreads
        // at auto inherits the service's per-simulation budget.
        config.inheritSimThreads(simThreads_);

        SimResult result;
        std::exception_ptr error;
        std::string what;
        try {
            if (job->useWarm)
                result = Simulation(config, *job->request.bvh,
                                    *job->request.triangles,
                                    *lease.set)
                             .run(*job->request.rays);
            else
                result = Simulation(config, *job->request.bvh,
                                    *job->request.triangles)
                             .run(*job->request.rays);
        } catch (const std::exception &e) {
            error = std::current_exception();
            what = e.what();
        } catch (...) {
            error = std::current_exception();
            what = "unknown error";
        }
        if (job->useWarm)
            // A failed run may have trained the tables partway through
            // an aborted workload; drop the entry so later same-key
            // jobs start from a defined (cold) state instead.
            warm_.release(job->warmKey, /*keep_state=*/!error);

        lk.lock();
        running_--;
        job->outcome.serviceSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - dispatch)
                .count();
        TenantTallies &tallies = tenantStats_[job->request.tenant];
        tallies.jobLatency.observe(job->outcome.serviceSeconds);
        if (error) {
            job->outcome.state = JobState::Failed;
            job->outcome.error = std::move(what);
            job->outcome.exception = error;
            stats_.failed++;
            tallies.failed++;
        } else {
            job->outcome.state = JobState::Done;
            job->outcome.result = std::move(result);
            stats_.completed++;
            tallies.completed++;
        }
        jobDone_.notify_all();
        // A released lease may unblock another tenant's head job.
        workReady_.notify_all();
    }
}

} // namespace rtp
