#include "gpu/config.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bvh/bvh.hpp"

namespace rtp {

SimConfig
SimConfig::proposed()
{
    SimConfig c;
    c.numSms = 2;
    c.rt.maxWarps = 8;
    c.rt.repackEnabled = true;
    c.predictor.enabled = true;
    c.predictor.goUpLevel = 3;
    c.predictor.table.numEntries = 1024;
    c.predictor.table.ways = 4;
    c.predictor.table.nodesPerEntry = 1;
    c.predictor.hash.function = HashFunction::GridSpherical;
    c.predictor.hash.originBits = 5;
    c.predictor.hash.directionBits = 3;
    return c;
}

SimConfig
SimConfig::baseline()
{
    SimConfig c = proposed();
    c.predictor.enabled = false;
    c.rt.repackEnabled = false;
    return c;
}

std::uint32_t
SimConfig::eventLoopWorkers() const
{
    std::uint32_t want = simThreads;
    if (want == kAutoSimThreads) {
        // Below 4 SMs the gate's waits outweigh the parallel work. At
        // 4 or more, leave one hardware thread to the rest of the
        // host: the workers advance in lock-step, so one of them
        // sharing a core with a busy neighbour stalls them all
        // (docs/performance.md has the measurements for both).
        if (numSms < 4)
            return 1;
        const std::uint32_t hw = std::thread::hardware_concurrency();
        want = hw > 1 ? hw - 1 : 1;
    }
    return std::max(1u, std::min(want, numSms));
}

void
SimConfig::validate() const
{
    auto fail = [](const std::string &msg) {
        throw std::invalid_argument("SimConfig::validate: " + msg);
    };
    if (numSms == 0)
        fail("numSms must be > 0 (no SM would receive rays)");
    if (rt.warpSize == 0)
        fail("rt.warpSize must be > 0 (warps would be empty)");
    if (rt.maxWarps == 0)
        fail("rt.maxWarps must be > 0 (no warp could ever dispatch)");
    if (rt.stackEntries == 0)
        fail("rt.stackEntries must be > 0 (the hardware traversal "
             "stack needs at least one entry)");
    if (rt.l1PortsPerCycle == 0)
        fail("rt.l1PortsPerCycle must be > 0 (no memory request could "
             "ever issue)");
    // The cache model builds sizeBytes / lineBytes lines as ways-wide
    // sets; any other geometry would be silently shrunk to fit.
    auto check_cache = [&](const CacheConfig &c, const std::string &name) {
        if (c.lineBytes == 0)
            fail(name + ".lineBytes must be > 0 (address-to-line "
                        "division by zero)");
        if (c.sizeBytes < c.lineBytes)
            fail(name + ".sizeBytes must hold at least one line");
        if (c.sizeBytes % c.lineBytes != 0)
            fail(name + ".sizeBytes (" + std::to_string(c.sizeBytes) +
                 ") must be a multiple of lineBytes (" +
                 std::to_string(c.lineBytes) +
                 "); the remainder would not be modelled");
        std::uint32_t lines = c.sizeBytes / c.lineBytes;
        if (c.ways > lines)
            fail(name + ".ways (" + std::to_string(c.ways) +
                 ") must not exceed the line count (" +
                 std::to_string(lines) + "; 0 = fully associative)");
        if (c.ways != 0 && lines % c.ways != 0)
            fail(name + ".ways (" + std::to_string(c.ways) +
                 ") must divide the line count (" +
                 std::to_string(lines) + "); only " +
                 std::to_string(lines / c.ways * c.ways) +
                 " lines would be modelled");
    };
    check_cache(memory.l1, "memory.l1");
    check_cache(memory.l2, "memory.l2");
    if (memory.dram.numBanks == 0)
        fail("memory.dram.numBanks must be > 0 (every access would "
             "deadlock on a bank)");
    // The predictor table builds numEntries / ways sets of ways entries
    // and indexes them with log2(sets) folded hash bits; any other
    // geometry would be silently resized or partly unreachable.
    if (predictor.enabled) {
        const PredictorTableConfig &t = predictor.table;
        if (t.numEntries == 0)
            fail("predictor.table.numEntries must be > 0 when the "
                 "predictor is enabled");
        if (t.ways == 0)
            fail("predictor.table.ways must be > 0 (1 = direct-mapped)");
        if (t.nodesPerEntry == 0)
            fail("predictor.table.nodesPerEntry must be > 0 (an entry "
                 "needs a slot to store a trained node in)");
        if (t.numEntries % t.ways != 0)
            fail("predictor.table.numEntries (" +
                 std::to_string(t.numEntries) +
                 ") must be a multiple of ways (" +
                 std::to_string(t.ways) + "); only " +
                 std::to_string(t.numEntries / t.ways * t.ways) +
                 " entries would be modelled");
        std::uint32_t sets = t.numEntries / t.ways;
        if ((sets & (sets - 1)) != 0)
            fail("predictor.table set count (numEntries / ways = " +
                 std::to_string(sets) +
                 ") must be a power of two; the folded hash index "
                 "would reach only some of the sets");
        if (predictor.accessPorts == 0)
            fail("predictor.accessPorts must be > 0 when the "
                 "predictor is enabled");
    }
}

void
SimConfig::validate(const Bvh &bvh) const
{
    validate();
    if (predictor.enabled && predictor.goUpLevel > bvh.maxDepth())
        throw std::invalid_argument(
            "SimConfig::validate: predictor.goUpLevel (" +
            std::to_string(predictor.goUpLevel) +
            ") exceeds the BVH depth (" +
            std::to_string(bvh.maxDepth()) +
            ") — no leaf has such an ancestor");
}

std::string
configToJson(const SimConfig &config)
{
    auto cache = [](std::ostringstream &os, const CacheConfig &c) {
        os << "{\"size_bytes\":" << c.sizeBytes
           << ",\"line_bytes\":" << c.lineBytes << ",\"ways\":" << c.ways
           << ",\"hit_latency\":" << c.hitLatency << "}";
    };
    std::ostringstream os;
    os << "{\"num_sms\":" << config.numSms;
    os << ",\"rt\":{\"warp_size\":" << config.rt.warpSize
       << ",\"max_warps\":" << config.rt.maxWarps
       << ",\"additional_warps\":" << config.rt.additionalWarps
       << ",\"stack_entries\":" << config.rt.stackEntries
       << ",\"l1_ports_per_cycle\":" << config.rt.l1PortsPerCycle
       << ",\"queue_latency\":" << config.rt.queueLatency
       << ",\"box_test_latency\":" << config.rt.isect.boxTestLatency
       << ",\"tri_test_latency\":" << config.rt.isect.triTestLatency
       << ",\"repack_enabled\":"
       << (config.rt.repackEnabled ? "true" : "false")
       << ",\"repacker\":{\"warp_size\":" << config.rt.repacker.warpSize
       << ",\"capacity\":" << config.rt.repacker.capacity
       << ",\"timeout\":" << config.rt.repacker.timeout << "}}";
    const PredictorConfig &p = config.predictor;
    os << ",\"predictor\":{\"enabled\":"
       << (p.enabled ? "true" : "false")
       << ",\"go_up_level\":" << p.goUpLevel
       << ",\"access_ports\":" << p.accessPorts
       << ",\"access_latency\":" << p.accessLatency
       << ",\"hash\":{\"function\":\""
       << (p.hash.function == HashFunction::GridSpherical
               ? "grid_spherical"
               : "two_point")
       << "\",\"origin_bits\":" << p.hash.originBits
       << ",\"direction_bits\":" << p.hash.directionBits
       << ",\"length_ratio\":" << p.hash.lengthRatio << "}"
       << ",\"table\":{\"num_entries\":" << p.table.numEntries
       << ",\"ways\":" << p.table.ways
       << ",\"nodes_per_entry\":" << p.table.nodesPerEntry
       << ",\"node_replacement\":\""
       << (p.table.nodeReplacement == NodeReplacement::LRU
               ? "lru"
               : p.table.nodeReplacement == NodeReplacement::LFU
                     ? "lfu"
                     : "lruk")
       << "\",\"lru_k\":" << p.table.lruK
       << ",\"node_bits\":" << p.table.nodeBits << "}}";
    const MemoryConfig &m = config.memory;
    os << ",\"memory\":{\"l1\":";
    cache(os, m.l1);
    os << ",\"l2\":";
    cache(os, m.l2);
    os << ",\"l1_to_l2_latency\":" << m.l1ToL2Latency
       << ",\"l2_to_dram_latency\":" << m.l2ToDramLatency
       << ",\"l2_enabled\":" << (m.l2Enabled ? "true" : "false")
       << ",\"dram\":{\"num_banks\":" << m.dram.numBanks
       << ",\"row_bytes\":" << m.dram.rowBytes
       << ",\"row_hit_latency\":" << m.dram.rowHitLatency
       << ",\"row_miss_latency\":" << m.dram.rowMissLatency
       << ",\"burst_occupancy\":" << m.dram.burstOccupancy
       << ",\"queue_capacity\":" << m.dram.queueCapacity
       << ",\"queue_penalty\":" << m.dram.queuePenalty << "}}";
    os << "}";
    return os.str();
}

std::string
describe(const SimConfig &config)
{
    std::ostringstream os;
    os << config.numSms << " SMs, L1 "
       << config.memory.l1.sizeBytes / 1024 << "KB";
    if (config.predictor.enabled) {
        os << ", predictor " << config.predictor.table.numEntries << "x"
           << config.predictor.table.nodesPerEntry << " ("
           << config.predictor.table.ways << "-way)";
        os << ", GoUp " << config.predictor.goUpLevel << ", repack "
           << (config.rt.repackEnabled ? "on" : "off");
        if (config.rt.additionalWarps > 0)
            os << " +" << config.rt.additionalWarps << " warps";
    } else {
        os << ", no predictor";
    }
    return os.str();
}

} // namespace rtp
