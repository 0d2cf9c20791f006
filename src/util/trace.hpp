/**
 * @file
 * Cycle-level trace sink: the simulator's observability layer.
 *
 * The paper's headline results (Figs. 11-17) all hinge on *where cycles
 * go* — elided node fetches, mispredict restarts, repacking latency —
 * which end-of-run scalar counters cannot localise. Components emit
 * typed TraceEvents into a ring-buffered TraceSink; the sink exports
 * Chrome-trace-format JSON (load in Perfetto / chrome://tracing) and is
 * summarised offline by tools/trace_report.
 *
 * Components reach the sink only through the observer seam
 * (util/observer.hpp): one port pointer per component, one branch per
 * emission site when no observer is attached, and emission never
 * touches simulated state, so attaching a sink cannot change cycle
 * counts.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "mem/cache.hpp" // Cycle

namespace rtp {

/** Typed simulator events (the event taxonomy of docs/observability.md). */
enum class TraceEventKind : std::uint8_t
{
    WarpDispatch,        //!< warp enters the RT unit (aux 1 = repacked)
    WarpComplete,        //!< warp retired; span covers its residency
    NodeFetchIssue,      //!< BVH node/leaf request issued (aux 1 = leaf)
    NodeFetchReady,      //!< span from issue to data ready
    CacheHit,            //!< cache hit (aux = level)
    CacheMiss,           //!< cache miss; arg = fill latency in cycles
    CacheMshrMerge,      //!< miss merged into an in-flight fill
    CacheInflightBypass, //!< every way in flight; fill bypassed the cache
    DramAccess,          //!< bank access; aux 1 = row hit, arg = busy banks
    PredictorLookup,     //!< table lookup (aux 1 = hit)
    PredictorTrain,      //!< table update with a Go-Up-Level ancestor
    PredictorVerify,     //!< prediction verified by an intersection
    PredictorMispredict, //!< span: verification traversal that failed
    RepackCollect,       //!< predicted rays entered the collector
    RepackFlush,         //!< warp left the collector (aux 1 = timeout)
};

/** One trace record. Payload meaning depends on kind (see taxonomy). */
struct TraceEvent
{
    Cycle cycle = 0;     //!< simulated cycle of the event (span start)
    Cycle duration = 0;  //!< span length in cycles; 0 = instant event
    TraceEventKind kind = TraceEventKind::WarpDispatch;
    std::uint16_t unit = 0; //!< SM index / cache id / DRAM bank
    std::uint16_t aux = 0;  //!< kind-specific flag (level, leaf, hit...)
    std::uint64_t id = 0;   //!< warp order / global ray id / address
    std::uint64_t arg = 0;  //!< kind-specific payload (latency, count...)
};

/**
 * Ring-buffered event sink. When full, the oldest events are dropped
 * (the most recent window is what post-mortem debugging needs) and the
 * drop count is reported in the exported trace.
 *
 * Not thread-safe: one sink observes one simulation run, which executes
 * on a single harness worker thread. The sharded event loop buffers
 * each SM's events in its observer port and merges them into the sink
 * after the run (RunObservers::finish), preserving this contract.
 */
class TraceSink
{
  public:
    /** @param capacity Ring size in events (default 1M, ~40 MB). */
    explicit TraceSink(std::size_t capacity = 1u << 20);

    /** Record one event, overwriting the oldest when the ring is full. */
    void
    emit(const TraceEvent &ev)
    {
        if (size_ < ring_.size()) {
            ring_[(head_ + size_) % ring_.size()] = ev;
            size_++;
        } else {
            ring_[head_] = ev;
            head_ = (head_ + 1) % ring_.size();
            dropped_++;
        }
    }

    std::size_t
    size() const
    {
        return size_;
    }

    std::size_t
    capacity() const
    {
        return ring_.size();
    }

    /** @return Events evicted because the ring wrapped. */
    std::uint64_t
    dropped() const
    {
        return dropped_;
    }

    /** @return Buffered events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Drop all buffered events (keeps the drop counter). */
    void clear();

    /**
     * Write the buffered events as Chrome trace format JSON
     * ({"traceEvents":[...]}; ts/dur in "microseconds" = simulated
     * cycles). Loads directly in Perfetto or chrome://tracing and is
     * summarised by tools/trace_report.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Write the Chrome trace to @p path. @return true on success. */
    bool writeChromeTrace(const std::string &path) const;

    /** Stable lowercase name of an event kind (trace "name" field). */
    static const char *kindName(TraceEventKind kind);

  private:
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace rtp
