/**
 * @file
 * MetricsRegistry / Prometheus exposition tests (util/metrics.hpp):
 * label-value escaping, deterministic family and label ordering,
 * histogram bucket rendering (cumulative with a closing +Inf), the
 * schema-stamped JSON sink, promLint()'s grammar and histogram
 * discipline, and the populateFromProfile / populateFromStats bridges.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/schema.hpp"
#include "util/stats.hpp"

namespace rtp {
namespace {

/** @return true when @p haystack contains @p needle. */
bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(MetricsRegistry, EscapesLabelValuesAndHelp)
{
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\\b\"c\nd"),
              "a\\\\b\\\"c\\nd");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(MetricsRegistry::escapeHelp("line\nbreak\\x"),
              "line\\nbreak\\\\x");

    // Escaped values must survive rendering and still lint clean.
    MetricsRegistry reg;
    reg.addCounter("rtp_test_total", "weird labels",
                   {{"path", "a\\b\"c\nd"}}, 1.0);
    const std::string text = reg.renderProm();
    EXPECT_TRUE(contains(text,
                         "rtp_test_total{path=\"a\\\\b\\\"c\\nd\"} 1"))
        << text;
    EXPECT_TRUE(promLint(text).empty()) << text;
}

TEST(MetricsRegistry, LabelAndFamilyOrderingIsDeterministic)
{
    // Same series handed over in different label and family orders must
    // render byte-identically: families sorted by name, labels sorted
    // by label name.
    MetricsRegistry a;
    a.addCounter("rtp_zz_total", "z", {{"zeta", "1"}, {"alpha", "2"}}, 3.0);
    a.addCounter("rtp_aa_total", "a", {}, 1.0);
    MetricsRegistry b;
    b.addCounter("rtp_aa_total", "a", {}, 1.0);
    b.addCounter("rtp_zz_total", "z", {{"alpha", "2"}, {"zeta", "1"}}, 3.0);
    EXPECT_EQ(a.renderProm(), b.renderProm());
    EXPECT_EQ(a.toJson(), b.toJson());

    const std::string text = a.renderProm();
    EXPECT_TRUE(contains(text, "rtp_zz_total{alpha=\"2\",zeta=\"1\"} 3"))
        << text;
    EXPECT_LT(text.find("rtp_aa_total"), text.find("rtp_zz_total"));
}

TEST(MetricsRegistry, CountersAccumulateGaugesOverwrite)
{
    MetricsRegistry reg;
    reg.addCounter("rtp_c_total", "c", {{"k", "v"}}, 2.0);
    reg.addCounter("rtp_c_total", "c", {{"k", "v"}}, 3.0);
    reg.setGauge("rtp_g", "g", {}, 7.0);
    reg.setGauge("rtp_g", "g", {}, 4.0);
    const std::string text = reg.renderProm();
    EXPECT_TRUE(contains(text, "rtp_c_total{k=\"v\"} 5")) << text;
    EXPECT_TRUE(contains(text, "rtp_g 4")) << text;
    EXPECT_TRUE(contains(text, "# TYPE rtp_c_total counter")) << text;
    EXPECT_TRUE(contains(text, "# TYPE rtp_g gauge")) << text;
}

TEST(MetricsRegistry, HistogramRendersCumulativeBucketsWithInf)
{
    MetricsRegistry reg;
    HistogramData &h = reg.histogram("rtp_lat_seconds", "latency",
                                     {{"tenant", "a"}}, {1.0, 4.0});
    h.observe(1.0); // first bucket (le 1)
    h.observe(2.0); // second bucket (le 4)
    h.observe(8.0); // overflow (+Inf)
    const std::string text = reg.renderProm();
    EXPECT_TRUE(contains(text, "# TYPE rtp_lat_seconds histogram")) << text;
    EXPECT_TRUE(contains(
        text, "rtp_lat_seconds_bucket{tenant=\"a\",le=\"1\"} 1"))
        << text;
    EXPECT_TRUE(contains(
        text, "rtp_lat_seconds_bucket{tenant=\"a\",le=\"4\"} 2"))
        << text;
    EXPECT_TRUE(contains(
        text, "rtp_lat_seconds_bucket{tenant=\"a\",le=\"+Inf\"} 3"))
        << text;
    EXPECT_TRUE(contains(text, "rtp_lat_seconds_sum{tenant=\"a\"} 11"))
        << text;
    EXPECT_TRUE(contains(text, "rtp_lat_seconds_count{tenant=\"a\"} 3"))
        << text;
    EXPECT_TRUE(promLint(text).empty()) << text;
}

TEST(MetricsRegistry, JsonSinkCarriesSchemaVersion)
{
    MetricsRegistry reg;
    reg.addCounter("rtp_c_total", "c", {{"k", "v"}}, 1.0);
    reg.histogram("rtp_h", "h", {}, {1.0}).observe(0.5);
    const std::string json = reg.toJson();
    EXPECT_EQ(json.rfind("{\"schema_version\":" +
                             std::to_string(kResultSchemaVersion),
                         0),
              0u)
        << json;
    EXPECT_TRUE(contains(json, "\"name\":\"rtp_c_total\"")) << json;
    EXPECT_TRUE(contains(json, "\"type\":\"counter\"")) << json;
    EXPECT_TRUE(contains(json, "\"buckets\":[[\"1\",1],[\"+Inf\",0]]"))
        << json;
}

TEST(MetricsRegistry, RejectsInvalidNamesAndKindClashes)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.addCounter("bad name", "", {}, 1.0),
                 std::logic_error);
    EXPECT_THROW(reg.addCounter("rtp_ok", "", {{"0bad", "v"}}, 1.0),
                 std::logic_error);
    reg.addCounter("rtp_x", "", {}, 1.0);
    EXPECT_THROW(reg.setGauge("rtp_x", "", {}, 1.0), std::logic_error);

    EXPECT_TRUE(MetricsRegistry::validMetricName("rtp:cycles_total"));
    EXPECT_FALSE(MetricsRegistry::validMetricName("9lead"));
    EXPECT_FALSE(MetricsRegistry::validLabelName("with:colon"));
    EXPECT_EQ(MetricsRegistry::sanitizeName("l1.hit-rate"), "l1_hit_rate");
    EXPECT_EQ(MetricsRegistry::sanitizeName("9x"), "_9x");
}

TEST(MetricsRegistry, HistogramMergeRejectsMismatchedBounds)
{
    HistogramData a({1.0, 2.0});
    HistogramData b({1.0, 4.0});
    a.observe(0.5);
    b.observe(0.5);
    EXPECT_THROW(a.merge(b), std::logic_error);
    HistogramData c({1.0, 2.0});
    c.observe(1.5);
    a.merge(c);
    EXPECT_EQ(a.count, 2u);
    EXPECT_EQ(a.counts[0], 1u);
    EXPECT_EQ(a.counts[1], 1u);
}

TEST(MetricsRegistry, DefaultLatencyBoundsAreAscending)
{
    const std::vector<double> bounds = defaultLatencyBounds();
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_DOUBLE_EQ(bounds.front(), 0.001);
    EXPECT_GT(bounds.back(), 60.0);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST(PromLint, FlagsGrammarAndTypeViolations)
{
    EXPECT_TRUE(promLint("").empty());
    EXPECT_FALSE(promLint("foo{bad 2\n").empty());
    EXPECT_FALSE(promLint("foo\n").empty()); // no value
    EXPECT_FALSE(promLint("foo nope\n").empty());
    EXPECT_FALSE(promLint("9bad 1\n").empty());
    // Duplicate TYPE, and TYPE after the family's samples.
    EXPECT_FALSE(
        promLint("# TYPE a counter\n# TYPE a counter\na 1\n").empty());
    EXPECT_FALSE(promLint("a 1\n# TYPE a counter\n").empty());
    EXPECT_FALSE(promLint("# TYPE a nonsense\na 1\n").empty());
    // Clean document accepted.
    EXPECT_TRUE(promLint("# HELP a help text\n# TYPE a counter\n"
                         "a{x=\"1\"} 2\na{x=\"2\"} 3\n")
                    .empty());
}

TEST(PromLint, EnforcesHistogramDiscipline)
{
    const std::string head = "# TYPE h histogram\n";
    // Non-cumulative buckets.
    EXPECT_FALSE(promLint(head + "h_bucket{le=\"1\"} 5\n"
                                 "h_bucket{le=\"+Inf\"} 3\n"
                                 "h_sum 1\nh_count 3\n")
                     .empty());
    // Missing +Inf bucket.
    EXPECT_FALSE(promLint(head + "h_bucket{le=\"1\"} 1\n"
                                 "h_sum 1\nh_count 1\n")
                     .empty());
    // _count disagreeing with the +Inf bucket.
    EXPECT_FALSE(promLint(head + "h_bucket{le=\"1\"} 1\n"
                                 "h_bucket{le=\"+Inf\"} 3\n"
                                 "h_sum 1\nh_count 4\n")
                     .empty());
    // Histogram sampled without a recognised suffix.
    EXPECT_FALSE(promLint(head + "h 3\n").empty());
    // The well-formed version of the same series.
    EXPECT_TRUE(promLint(head + "h_bucket{le=\"1\"} 1\n"
                                "h_bucket{le=\"+Inf\"} 3\n"
                                "h_sum 9\nh_count 3\n")
                    .empty());
}

TEST(MetricsBridges, PopulateFromProfileLintsClean)
{
    // Drive the profiler by hand through one tiny synthetic run: one
    // box-test step at cycle 0, idle drain to cycle 3.
    CycleProfiler profile;
    profile.attach(1);
    profile.onEvent(0, 0);
    profile.noteExec(0, CycleCat::BoxTest, ProfRayType::Occlusion);
    profile.noteEvent(0, {0, 0, TraceEventKind::CacheHit, 0, 1, 0, 1});
    profile.noteEvent(0, {0, 0, TraceEventKind::PredictorLookup, 0, 0,
                          0, 0});
    profile.closeStep(0, 0, true, false);
    profile.finish(3);

    MetricsRegistry reg;
    populateFromProfile(reg, profile);
    const std::string text = reg.renderProm();
    EXPECT_TRUE(promLint(text).empty()) << text;
    EXPECT_TRUE(contains(
        text, "rtp_profile_cycles_total{category=\"box_test\","
              "ray_type=\"occlusion\",sm=\"0\"} 1"))
        << text;
    EXPECT_TRUE(contains(text, "rtp_profile_elapsed_cycles 4")) << text;
    EXPECT_TRUE(contains(text, "rtp_profile_runs_total 1")) << text;
    EXPECT_TRUE(contains(
        text, "rtp_profile_pred_lookups_total{sm=\"0\"} 1"))
        << text;
    // Every category appears in the stable per-category totals, even
    // the ones this run never touched.
    for (std::size_t c = 0; c < kCycleCatCount; ++c)
        EXPECT_TRUE(contains(
            text, std::string("rtp_profile_category_cycles_total{"
                              "category=\"") +
                      cycleCatName(static_cast<CycleCat>(c)) + "\"}"))
            << cycleCatName(static_cast<CycleCat>(c));
}

TEST(MetricsBridges, PopulateFromStatsCoversAllThreeShapes)
{
    StatGroup stats;
    stats.inc("rays_completed", 5);
    stats.set("speedup", 1.5);
    stats.addSample("miss.latency", 3);
    stats.addSample("miss.latency", 40);

    MetricsRegistry reg;
    populateFromStats(reg, stats, {{"scene", "SB"}});
    const std::string text = reg.renderProm();
    EXPECT_TRUE(promLint(text).empty()) << text;
    EXPECT_TRUE(contains(
        text, "rtp_sim_rays_completed_total{scene=\"SB\"} 5"))
        << text;
    EXPECT_TRUE(contains(text, "rtp_sim_speedup{scene=\"SB\"} 1.5"))
        << text;
    EXPECT_TRUE(contains(text, "# TYPE rtp_sim_miss_latency histogram"))
        << text;
    EXPECT_TRUE(contains(text, "rtp_sim_miss_latency_count{scene=\"SB\"} 2"))
        << text;
}

} // namespace
} // namespace rtp
