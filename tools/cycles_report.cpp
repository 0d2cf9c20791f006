/**
 * @file
 * Summarise a cycle-attribution profile emitted by the simulator's
 * CycleProfiler (RTP_PROFILE=out.json, see docs/observability.md).
 *
 * Usage:
 *   cycles_report <profile.json>
 *
 * It validates the file (well-formed JSON, schema version, required
 * members), re-checks the conservation law offline — every SM's
 * categories must sum to the elapsed cycle count — and prints:
 *   - a per-SM breakdown table, categories as columns, sorted by the
 *     global cost of each category;
 *   - the aggregate attribution ranked by share of total cycles;
 *   - a predictor cost/benefit section from the meta tallies: cycles
 *     spent looking up and verifying predictions against the cycles
 *     the predictor removed from box/tri work, plus cache behaviour.
 *
 * Exits 0 on success, 1 on malformed input or I/O failure, 2 on usage
 * errors, 3 when the conservation law fails. CI uses the exit code
 * to smoke-test profiled runs.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/schema.hpp"

namespace {

using rtp::JsonValue;

/** Whole-file slurp; empty optional on I/O failure. */
bool
readFile(const char *path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    out = os.str();
    return is.good() || is.eof();
}

/** One category's global tally, for ranking columns. */
struct CatTotal
{
    std::string name;
    std::uint64_t cycles = 0;
};

double
pctOf(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

int
runReport(const char *path)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "cycles_report: cannot read %s\n", path);
        return 1;
    }
    std::string error;
    auto root = rtp::parseJson(text, &error);
    if (!root || !root->isObject()) {
        std::fprintf(stderr, "cycles_report: %s: %s\n", path,
                     error.empty() ? "not a JSON object"
                                   : error.c_str());
        return 1;
    }
    double schema = root->numberAt("schema_version", -1.0);
    if (schema != static_cast<double>(rtp::kResultSchemaVersion)) {
        std::fprintf(stderr,
                     "cycles_report: %s: schema_version %g != %u\n",
                     path, schema, rtp::kResultSchemaVersion);
        return 1;
    }
    const JsonValue *prof = root->find("profile");
    if (!prof || !prof->isObject()) {
        std::fprintf(stderr,
                     "cycles_report: %s: missing \"profile\" object\n",
                     path);
        return 1;
    }
    const JsonValue *cats = prof->find("categories");
    const JsonValue *sms = prof->find("sms");
    const JsonValue *total = prof->find("total");
    if (!cats || !cats->isArray() || !sms || !sms->isArray() ||
        !total || !total->isObject()) {
        std::fprintf(
            stderr,
            "cycles_report: %s: missing categories/sms/total\n", path);
        return 1;
    }
    const auto elapsed = static_cast<std::uint64_t>(
        prof->numberAt("elapsed_cycles", 0.0));
    const auto runs =
        static_cast<std::uint64_t>(prof->numberAt("runs", 0.0));

    std::vector<std::string> names;
    for (const JsonValue &c : cats->array)
        names.push_back(c.str);

    // Offline conservation re-check: the writer's InvariantChecker
    // already enforced this under RTP_CHECK=1, but the report must not
    // trust the file it summarises.
    bool conserved = true;
    for (const JsonValue &sm : sms->array) {
        const JsonValue *cycles = sm.find("cycles");
        if (!cycles || !cycles->isObject()) {
            std::fprintf(stderr,
                         "cycles_report: %s: SM row without cycles\n",
                         path);
            return 1;
        }
        std::uint64_t sum = 0;
        for (const std::string &n : names) {
            const JsonValue *cell = cycles->find(n);
            sum += static_cast<std::uint64_t>(
                cell ? cell->numberAt("total", 0.0) : 0.0);
        }
        auto smTotal = static_cast<std::uint64_t>(
            sm.numberAt("total_cycles", 0.0));
        if (sum != smTotal || sum != elapsed) {
            std::fprintf(stderr,
                         "cycles_report: conservation FAILED on SM %g: "
                         "category sum %llu, total_cycles %llu, "
                         "elapsed %llu\n",
                         sm.numberAt("sm", -1.0),
                         static_cast<unsigned long long>(sum),
                         static_cast<unsigned long long>(smTotal),
                         static_cast<unsigned long long>(elapsed));
            conserved = false;
        }
    }

    // Rank categories by global cost; print the aggregate first, then
    // the per-SM table with ranked columns.
    const JsonValue *totalCycles = total->find("cycles");
    std::vector<CatTotal> ranked;
    std::uint64_t grand = 0;
    for (const std::string &n : names) {
        CatTotal ct;
        ct.name = n;
        if (totalCycles) {
            const JsonValue *cell = totalCycles->find(n);
            ct.cycles = static_cast<std::uint64_t>(
                cell ? cell->numberAt("total", 0.0) : 0.0);
        }
        grand += ct.cycles;
        ranked.push_back(ct);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const CatTotal &a, const CatTotal &b) {
                         return a.cycles > b.cycles;
                     });

    std::printf("Cycle attribution: %zu SM(s), %llu run(s), "
                "%llu elapsed cycles/SM\n\n",
                sms->array.size(),
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(elapsed));
    std::printf("%-20s %14s %7s\n", "category", "cycles", "share");
    for (const CatTotal &ct : ranked)
        std::printf("%-20s %14llu %6.1f%%\n", ct.name.c_str(),
                    static_cast<unsigned long long>(ct.cycles),
                    pctOf(ct.cycles, grand));

    std::printf("\nPer-SM shares (%% of elapsed):\n%-5s", "sm");
    for (const CatTotal &ct : ranked)
        std::printf(" %10.10s", ct.name.c_str());
    std::printf("\n");
    for (const JsonValue &sm : sms->array) {
        std::printf("%-5g", sm.numberAt("sm", -1.0));
        const JsonValue *cycles = sm.find("cycles");
        for (const CatTotal &ct : ranked) {
            const JsonValue *cell =
                cycles ? cycles->find(ct.name) : nullptr;
            auto v = static_cast<std::uint64_t>(
                cell ? cell->numberAt("total", 0.0) : 0.0);
            std::printf(" %9.1f%%", pctOf(v, elapsed));
        }
        std::printf("\n");
    }

    // Predictor cost/benefit from the meta tallies. Cost: cycles in
    // lookup and verification plus the restart redo work. Benefit is
    // indirect — fewer box/tri cycles — so report the raw numbers and
    // the hit rate and let the reader compare against a baseline
    // profile; an attribution profile of one run cannot know the
    // counterfactual.
    const JsonValue *meta = total->find("meta");
    if (meta && meta->isObject()) {
        auto m = [&](const char *k) {
            return static_cast<std::uint64_t>(meta->numberAt(k, 0.0));
        };
        std::uint64_t lookups = m("pred_lookups");
        std::uint64_t hits = m("pred_hits");
        auto catCycles = [&](const char *n) -> std::uint64_t {
            const JsonValue *cell =
                totalCycles ? totalCycles->find(n) : nullptr;
            return static_cast<std::uint64_t>(
                cell ? cell->numberAt("total", 0.0) : 0.0);
        };
        std::printf("\nPredictor cost/benefit:\n");
        std::printf("  lookups %llu, table hits %llu (%.1f%%)\n",
                    static_cast<unsigned long long>(lookups),
                    static_cast<unsigned long long>(hits),
                    pctOf(hits, lookups));
        std::uint64_t cost = catCycles("pred_lookup") +
                             catCycles("pred_verify") +
                             catCycles("mispredict_restart");
        std::printf("  cost cycles: lookup %llu + verify %llu + "
                    "restart %llu = %llu (%.1f%% of total)\n",
                    static_cast<unsigned long long>(
                        catCycles("pred_lookup")),
                    static_cast<unsigned long long>(
                        catCycles("pred_verify")),
                    static_cast<unsigned long long>(
                        catCycles("mispredict_restart")),
                    static_cast<unsigned long long>(cost),
                    pctOf(cost, grand));
        std::printf("  traversal cycles: box %llu, tri %llu\n",
                    static_cast<unsigned long long>(
                        catCycles("box_test")),
                    static_cast<unsigned long long>(
                        catCycles("tri_test")));
        std::printf("  repack: %llu flushes, %llu rays\n",
                    static_cast<unsigned long long>(
                        m("repack_flushes")),
                    static_cast<unsigned long long>(m("repack_rays")));
        std::uint64_t l1h = m("l1_hits"), l1m = m("l1_misses");
        std::uint64_t l2h = m("l2_hits"), l2m = m("l2_misses");
        std::printf("  caches: L1 %.1f%% of %llu, L2 %.1f%% of %llu, "
                    "DRAM row hits %.1f%% of %llu\n",
                    pctOf(l1h, l1h + l1m),
                    static_cast<unsigned long long>(l1h + l1m),
                    pctOf(l2h, l2h + l2m),
                    static_cast<unsigned long long>(l2h + l2m),
                    pctOf(m("dram_row_hits"), m("dram_accesses")),
                    static_cast<unsigned long long>(
                        m("dram_accesses")));
    }

    if (!conserved) {
        std::printf("\nconservation: FAILED\n");
        return 3;
    }
    std::printf("\nconservation: OK (every SM sums to %llu)\n",
                static_cast<unsigned long long>(elapsed));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2 || argv[1][0] == '-') {
        std::fprintf(stderr, "usage: cycles_report <profile.json>\n");
        return 2;
    }
    return runReport(argv[1]);
}
