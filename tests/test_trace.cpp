/** @file TraceSink, Chrome-trace export, and JSON parser tests. */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/trace.hpp"

namespace rtp {
namespace {

TraceEvent
ev(Cycle cycle, TraceEventKind kind, std::uint64_t id = 0,
   std::uint64_t arg = 0, Cycle dur = 0, std::uint16_t unit = 0,
   std::uint16_t aux = 0)
{
    return TraceEvent{cycle, dur, kind, unit, aux, id, arg};
}

TEST(TraceSink, PreservesEmissionOrder)
{
    TraceSink sink(16);
    sink.emit(ev(5, TraceEventKind::WarpDispatch, 1));
    sink.emit(ev(7, TraceEventKind::CacheMiss, 0x1000, 90));
    sink.emit(ev(9, TraceEventKind::WarpComplete, 1, 32, 100));
    ASSERT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.dropped(), 0u);
    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].cycle, 5u);
    EXPECT_EQ(events[0].kind, TraceEventKind::WarpDispatch);
    EXPECT_EQ(events[1].id, 0x1000u);
    EXPECT_EQ(events[1].arg, 90u);
    EXPECT_EQ(events[2].duration, 100u);
}

TEST(TraceSink, RingDropsOldestWhenFull)
{
    TraceSink sink(4);
    for (Cycle c = 0; c < 6; ++c)
        sink.emit(ev(c, TraceEventKind::CacheHit, c));
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);
    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest two (cycles 0, 1) were overwritten.
    EXPECT_EQ(events.front().cycle, 2u);
    EXPECT_EQ(events.back().cycle, 5u);
}

TEST(TraceSink, ClearKeepsDropCounter)
{
    TraceSink sink(2);
    for (Cycle c = 0; c < 3; ++c)
        sink.emit(ev(c, TraceEventKind::CacheHit));
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.dropped(), 1u);
    EXPECT_TRUE(sink.snapshot().empty());
}

TEST(TraceSink, KindNamesAreStableAndDistinct)
{
    const TraceEventKind kinds[] = {
        TraceEventKind::WarpDispatch,
        TraceEventKind::WarpComplete,
        TraceEventKind::NodeFetchIssue,
        TraceEventKind::NodeFetchReady,
        TraceEventKind::CacheHit,
        TraceEventKind::CacheMiss,
        TraceEventKind::CacheMshrMerge,
        TraceEventKind::CacheInflightBypass,
        TraceEventKind::DramAccess,
        TraceEventKind::PredictorLookup,
        TraceEventKind::PredictorTrain,
        TraceEventKind::PredictorVerify,
        TraceEventKind::PredictorMispredict,
        TraceEventKind::RepackCollect,
        TraceEventKind::RepackFlush,
    };
    std::set<std::string> names;
    for (TraceEventKind k : kinds) {
        std::string n = TraceSink::kindName(k);
        EXPECT_FALSE(n.empty());
        EXPECT_NE(n, "unknown");
        names.insert(n);
    }
    EXPECT_EQ(names.size(), std::size(kinds));
}

TEST(TraceSink, ChromeTraceIsValidJson)
{
    TraceSink sink(64);
    sink.emit(ev(10, TraceEventKind::WarpDispatch, 3, 32, 0, 1));
    sink.emit(ev(12, TraceEventKind::CacheMiss, 0x2000, 91, 0, 0, 1));
    sink.emit(ev(15, TraceEventKind::DramAccess, 0x2000, 2, 180, 5, 1));
    sink.emit(
        ev(40, TraceEventKind::PredictorMispredict, 7, 4, 25, 1));
    sink.emit(ev(90, TraceEventKind::WarpComplete, 3, 32, 80, 1));
    std::ostringstream os;
    sink.writeChromeTrace(os);

    std::string error;
    auto root = parseJson(os.str(), &error);
    ASSERT_TRUE(root.has_value()) << error;
    ASSERT_TRUE(root->isObject());
    const JsonValue *events = root->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t spans = 0, instants = 0, meta = 0;
    for (const JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "M") {
            meta++;
            continue;
        }
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        ASSERT_NE(e.find("args"), nullptr);
        if (ph->str == "X") {
            spans++;
            EXPECT_GT(e.numberAt("dur"), 0.0);
        } else {
            EXPECT_EQ(ph->str, "i");
            instants++;
        }
    }
    EXPECT_EQ(spans, 3u);    // dram access, mispredict, warp span
    EXPECT_EQ(instants, 2u); // dispatch + miss
    EXPECT_GT(meta, 0u);     // process_name metadata present

    const JsonValue *other = root->find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->numberAt("buffered_events"), 5.0);
    EXPECT_EQ(other->numberAt("dropped_events"), 0.0);
}

TEST(TraceSink, CacheEventNamesFoldLevel)
{
    TraceSink sink(8);
    sink.emit(ev(1, TraceEventKind::CacheMiss, 0x100, 90, 0, 0, 1));
    sink.emit(ev(2, TraceEventKind::CacheHit, 0x100, 1, 0, 0, 2));
    std::ostringstream os;
    sink.writeChromeTrace(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"l1_miss\""), std::string::npos);
    EXPECT_NE(out.find("\"l2_hit\""), std::string::npos);
}

TEST(Json, ParsesScalarsArraysObjects)
{
    std::string error;
    auto v = parseJson(
        R"({"a":1.5,"b":[true,null,"x\nA"],"c":{"d":-2e3}})",
        &error);
    ASSERT_TRUE(v.has_value()) << error;
    EXPECT_EQ(v->numberAt("a"), 1.5);
    const JsonValue *b = v->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_EQ(b->array[1].type, JsonValue::Type::Null);
    EXPECT_EQ(b->array[2].str, "x\nA");
    const JsonValue *c = v->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->numberAt("d"), -2000.0);

    // The shared writer-side escaper: short escapes for quote,
    // backslash, \n, \t and \r, \u00XX for other control bytes, and a
    // lossless round trip through the parser.
    const std::string raw = "q\"b\\s\nn\tt\rr\x01";
    EXPECT_EQ(jsonEscape(raw), "q\\\"b\\\\s\\nn\\tt\\rr\\u0001");
    std::string quoted = "\"";
    quoted.append(jsonEscape(raw)).append("\"");
    auto round = parseJson(quoted, &error);
    ASSERT_TRUE(round.has_value()) << error;
    EXPECT_EQ(round->str, raw);
}

TEST(Json, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(parseJson("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\":}", &error).has_value());
    EXPECT_FALSE(parseJson("[1,2,]", &error).has_value());
    EXPECT_FALSE(parseJson("{} trailing", &error).has_value());
    EXPECT_FALSE(parseJson("\"unterminated", &error).has_value());
    EXPECT_FALSE(parseJson("", &error).has_value());
}

TEST(Json, FindAndFallbacks)
{
    auto v = parseJson(R"({"s":"str","n":4})");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("missing"), nullptr);
    EXPECT_EQ(v->numberAt("missing", 7.0), 7.0);
    EXPECT_EQ(v->stringAt("s"), "str");
    EXPECT_EQ(v->stringAt("n", "fb"), "fb"); // wrong type -> fallback
}

} // namespace
} // namespace rtp
