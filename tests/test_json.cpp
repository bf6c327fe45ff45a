// Byte-for-byte pins of every JSON document the program renders
// (JsonGolden.*): the server's result and portfolio fragments, its response
// envelope, timings and error responses, the PoolProfile artifact, the
// Chrome trace and /statusz.  Then the rules of trace::JsonWriter, which
// renders them all (JsonWriter.*).
//
// The expected strings were captured from the renderers as they stood
// before they shared one writer.  Result fragments are the blobs the
// persistent cache log stores and older logs replay, and perfbench finds
// digests and timings in responses by string search, so a changed byte here
// is a compatibility break, not a style change.  Every label and name below
// carries a quote, a backslash, a newline, a tab, byte 0x01 and two-byte
// UTF-8, the characters whose escaping the documents depend on.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace isex {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// An id holding every character class the escaper handles.
const std::string kHostileId = "id\"\\\n\t\x01\xc3\xa9";

// --- golden helpers --------------------------------------------------------

/// Asserts `actual` equals the pinned bytes, and that it is well-formed JSON:
/// one document, or the members of an object (`fragment`).
enum class Shape { kDocument, kFragment };

void expect_golden(const std::string& actual, std::string_view expected,
                   Shape shape = Shape::kDocument) {
  EXPECT_EQ(actual, expected);
  switch (shape) {
    case Shape::kDocument:
      EXPECT_TRUE(testing::JsonChecker(actual).valid()) << actual;
      break;
    case Shape::kFragment:
      EXPECT_TRUE(testing::JsonChecker("{" + actual + "}").valid()) << actual;
      break;
  }
}

core::ExploredIse make_ise(std::initializer_list<dfg::NodeId> members,
                           int latency, double area, int in, int out, int gain,
                           std::vector<std::string> labels) {
  core::ExploredIse ise;
  ise.original_nodes = dfg::NodeSet::of(8, members);
  ise.eval.depth_ns = 1.5;
  ise.eval.latency_cycles = latency;
  ise.eval.area = area;
  ise.in_count = in;
  ise.out_count = out;
  ise.gain_cycles = gain;
  ise.member_labels = std::move(labels);
  return ise;
}

/// Two ISEs whose member labels carry every escaped character; the second
/// shares the first's ASFU.  Areas exercise %.3f rounding (2/3 and a
/// half-way 0.0005).
flow::FlowResult golden_flow(bool cache_modeled) {
  flow::FlowResult result;
  result.replacement.base_time = 12345678901234ULL;
  result.replacement.final_time = 9876543210987ULL;
  result.replacement.outcomes.push_back(
      flow::BlockOutcome{"blk\"0", 10, 12, 8, 1});

  flow::SelectedIse first;
  first.entry.block_index = 0;
  first.entry.position = 0;
  first.entry.benefit = 40;
  first.type_id = 0;
  first.entry.ise = make_ise({0, 1, 2}, 2, 2000.0 / 3.0, 3, 1, 4,
                             {"q\"uote", "back\\slash", "new\nline"});
  flow::SelectedIse second;
  second.entry.block_index = 3;
  second.entry.position = 1;
  second.entry.benefit = 7;
  second.type_id = 1;
  second.hardware_shared = true;
  second.entry.ise = make_ise({4, 5, 6, 7}, 1, 0.0005, 2, 2, 1,
                              {"t\tab", "ctl\x01", "caf\xc3\xa9"});
  result.selection.selected = {first, second};
  result.selection.total_area = 2000.0 / 3.0 + 0.0005;
  result.selection.num_types = 2;

  if (cache_modeled) {
    result.cache_modeled = true;
    result.cache_stats.accesses = 3;
    result.cache_stats.l1_hits = 2;
    result.cache_stats.l2_hits = 1;
    result.cache_stats.mem_accesses = 0;
  }
  return result;
}

/// Two programs named with every escaped character, one selected ISE each;
/// the second program's reuses the first's ASFU.
flow::PortfolioResult golden_portfolio(bool cache_modeled) {
  flow::PortfolioResult result;
  flow::PortfolioProgramResult p0;
  p0.name = "q\"uote back\\slash new\nline";
  p0.weight = 2.5;
  p0.hot_blocks = {0};
  p0.replacement.base_time = 100;
  p0.replacement.final_time = 75;
  flow::PortfolioProgramResult p1;
  p1.name = "t\tab ctl\x01 caf\xc3\xa9";
  p1.weight = 1.0 / 3.0;
  p1.hot_blocks = {2};
  p1.replacement.base_time = 7;
  p1.replacement.final_time = 7;
  result.programs = {p0, p1};

  flow::PortfolioSelectedIse a;
  a.program_index = 0;
  a.entry.block_index = 0;
  a.entry.ise = make_ise({0, 1}, 1, 12.3456, 2, 1, 3, {"a", "b"});
  a.type_id = 0;
  a.weighted_benefit = 7.5;
  flow::PortfolioSelectedIse b;
  b.program_index = 1;
  b.entry.block_index = 2;
  b.entry.ise = make_ise({3, 4}, 1, 0.0, 2, 1, 1, {"c", "d"});
  b.type_id = 0;
  b.hardware_shared = true;
  b.weighted_benefit = 1.0 / 3.0;
  result.selection.selected = {a, b};
  result.selection.total_area = 12.3456;
  result.selection.num_types = 1;

  result.eval_cache_stats.hits = 5;
  result.eval_cache_stats.misses = 3;
  result.total_jobs = 6;
  result.deduped_jobs = 2;
  result.isomorphic_hot_blocks = 1;
  result.isomorphic_candidates = 2;
  if (cache_modeled) {
    result.cache_modeled = true;
    result.cache_stats.accesses = 1000;
    result.cache_stats.l1_hits = 999;
    result.cache_stats.l2_hits = 1;
    result.cache_stats.mem_accesses = 0;
  }
  return result;
}

// --- pinned bytes ----------------------------------------------------------

constexpr std::string_view kResultFragment =
    R"json("base_time":12345678901234,"final_time":9876543210987,)json"
    R"json("reduction":0.200000,"num_ises":2,"num_types":2,)json"
    R"json("total_area":666.667,"result_digest":"0xef2495686bb7f47f",)json"
    R"json("ises":[{"block":0,"type":0,"shared":false,"ops":3,"latency":2,)json"
    R"json("area":666.667,"in":3,"out":1,"gain":4,)json"
    R"json("members":"q\"uote back\\slash new\nline"},{"block":3,"type":1,)json"
    R"json("shared":true,"ops":4,"latency":1,"area":0.001,"in":2,"out":2,)json"
    R"json("gain":1,"members":"t\tab ctl\u0001 café"}])json";

constexpr std::string_view kResultFragmentCache =
    R"json("base_time":12345678901234,"final_time":9876543210987,)json"
    R"json("reduction":0.200000,"num_ises":2,"num_types":2,)json"
    R"json("total_area":666.667,"result_digest":"0x96a90a444d1ea1e3",)json"
    R"json("ises":[{"block":0,"type":0,"shared":false,"ops":3,"latency":2,)json"
    R"json("area":666.667,"in":3,"out":1,"gain":4,)json"
    R"json("members":"q\"uote back\\slash new\nline"},{"block":3,"type":1,)json"
    R"json("shared":true,"ops":4,"latency":1,"area":0.001,"in":2,"out":2,)json"
    R"json("gain":1,"members":"t\tab ctl\u0001 café"}],"cache":{"accesses":3,)json"
    R"json("l1_hits":2,"l2_hits":1,"mem_accesses":0,"l1_hit_rate":0.666667})json";

constexpr std::string_view kPortfolioFragment =
    R"json("portfolio":true,"num_programs":2,)json"
    R"json("total_weighted_benefit":62.500000,"total_area":12.346,)json"
    R"json("num_types":1,"num_ises":2,"total_jobs":6,"deduped_jobs":2,)json"
    R"json("eval_hits":5,"eval_misses":3,"dedup_hit_rate":0.625000,)json"
    R"json("isomorphic_hot_blocks":1,"isomorphic_candidates":2,)json"
    R"json("result_digest":"0xa51c42094d4528e0",)json"
    R"json("programs":[{"name":"q\"uote back\\slash new\nline",)json"
    R"json("weight":2.500000,"base_time":100,"final_time":75,)json"
    R"json("reduction":0.250000,"num_ises":0,"cycles_saved":25,)json"
    R"json("weighted_benefit":62.500000},{"name":"t\tab ctl\u0001 café",)json"
    R"json("weight":0.333333,"base_time":7,"final_time":7,"reduction":0.000000,)json"
    R"json("num_ises":0,"cycles_saved":0,"weighted_benefit":0.000000}],)json"
    R"json("ises":[{"program":0,"block":0,"type":0,"shared":false,)json"
    R"json("area":12.346,"gain":3,"weighted_benefit":7.500000},{"program":1,)json"
    R"json("block":2,"type":0,"shared":true,"area":0.000,"gain":1,)json"
    R"json("weighted_benefit":0.333333}])json";

constexpr std::string_view kPortfolioFragmentCache =
    R"json("portfolio":true,"num_programs":2,)json"
    R"json("total_weighted_benefit":62.500000,"total_area":12.346,)json"
    R"json("num_types":1,"num_ises":2,"total_jobs":6,"deduped_jobs":2,)json"
    R"json("eval_hits":5,"eval_misses":3,"dedup_hit_rate":0.625000,)json"
    R"json("isomorphic_hot_blocks":1,"isomorphic_candidates":2,)json"
    R"json("result_digest":"0x5146a1ce9d7161f1",)json"
    R"json("programs":[{"name":"q\"uote back\\slash new\nline",)json"
    R"json("weight":2.500000,"base_time":100,"final_time":75,)json"
    R"json("reduction":0.250000,"num_ises":0,"cycles_saved":25,)json"
    R"json("weighted_benefit":62.500000},{"name":"t\tab ctl\u0001 café",)json"
    R"json("weight":0.333333,"base_time":7,"final_time":7,"reduction":0.000000,)json"
    R"json("num_ises":0,"cycles_saved":0,"weighted_benefit":0.000000}],)json"
    R"json("ises":[{"program":0,"block":0,"type":0,"shared":false,)json"
    R"json("area":12.346,"gain":3,"weighted_benefit":7.500000},{"program":1,)json"
    R"json("block":2,"type":0,"shared":true,"area":0.000,"gain":1,)json"
    R"json("weighted_benefit":0.333333}],"cache":{"accesses":1000,)json"
    R"json("l1_hits":999,"l2_hits":1,"mem_accesses":0,"l1_hit_rate":0.999000})json";

constexpr std::string_view kTimings =
    R"json("timings":{"queue_wait_us":18446744073709551615,"validate_us":46,)json"
    R"json("explore_us":18446744073709551615,"cache_us":3,)json"
    R"json("total_us":18446744073709551615})json";

constexpr std::string_view kResponseHit =
    R"json({"id":"id\"\\\n\t\u0001é","ok":true,"cache_hit":true,)json"
    R"json("timings":{"queue_wait_us":18446744073709551615,"validate_us":46,)json"
    R"json("explore_us":18446744073709551615,"cache_us":3,)json"
    R"json("total_us":18446744073709551615},"x":1})json";

constexpr std::string_view kResponseMiss =
    R"json({"id":"id\"\\\n\t\u0001é","ok":true,"cache_hit":false,)json"
    R"json("timings":{"queue_wait_us":0,"validate_us":0,"explore_us":0,)json"
    R"json("cache_us":0,"total_us":0},"x":1})json";

constexpr std::string_view kErrorResponse =
    R"json({"id":"id\"\\\n\t\u0001é","ok":false,"error_code":"E0602",)json"
    R"json("error_name":"server-queue-full",)json"
    R"json("error":"queue \"full\"\\\n\t\u0001 café"})json";

constexpr std::string_view kErrorResponseNoId =
    R"json({"id":"","ok":false,"error_code":"E0601",)json"
    R"json("error_name":"server-protocol","error":"bad line"})json";

constexpr std::string_view kPoolProfile = R"json({
"pool":{"threads":1,"profiled":true,"task_count":6,"task_seconds_total":0.333333},
"workers":[
{"worker":"0","tasks":12,"busy_seconds":0.1,"idle_seconds":1e-07,"occupancy":0.999999},
{"worker":"external","tasks":1234567,"busy_seconds":1.23457e+06,"idle_seconds":0,"occupancy":1}
],
"task_histogram":{"bounds_us":[1,10,250000,1e+07],"counts":[0,5,1,0,18446744073709551615]},
"sections":[
{"name":"explore \"colonies\"\\\n\t\u0001","invocations":2,"tasks":8,"serial_seconds":1e-07,"wall_seconds":0.1,"task_seconds":0.3,"max_task_seconds":0.05,"serial_fraction":9.99999e-07,"imbalance":1.33333},
{"name":"café","invocations":0,"tasks":0,"serial_seconds":0,"wall_seconds":0,"task_seconds":0,"max_task_seconds":0,"serial_fraction":0,"imbalance":0}
]}
)json";

constexpr std::string_view kChromeTrace = R"json({"traceEvents":[
{"name":"stage:\"explore\"","pid":1,"tid":1,"ts":1,"ph":"X","dur":2,"args":{"trace_id":3,"span_id":4,"parent_span_id":0}},
{"name":"plain\\span","pid":1,"tid":2,"ts":18446744073709551615,"ph":"X","dur":0},
{"name":"tick\n","pid":1,"tid":3,"ts":5,"ph":"i","s":"t"},
{"name":"c\t0.1","pid":1,"tid":4,"ts":6,"ph":"C","args":{"value":0.1}},
{"name":"ctl\u0001","pid":1,"tid":5,"ts":7,"ph":"C","args":{"value":1.23457e+06}},
{"name":"café","pid":1,"tid":6,"ts":8,"ph":"C","args":{"value":1e-07}}
],"displayTimeUnit":"ms"}
)json";

constexpr std::string_view kStatuszMasked = R"json({"uptime_us":0,"draining":false,
"queue":{"depth":0,"capacity":0,"workers":0},
"inflight":[
{"id":"queued \"job\"\\\t café","priority":0,"stage":"queued","age_us":0,"queue_wait_us":0}],
"jobs":{"accepted":0,"completed":0,"failed":0,"invalid":0,"rejected_queue_full":0,"rejected_draining":0,"cache_hits":0,"cache_misses":0},
"kernel_memo":{"hits":0,"misses":0,"parses":0,"entries":0,"bytes":0},
"job_latency":{"bounds_s":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":0,"sum_s":0},
"queue_wait":{"bounds_s":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":0,"sum_s":0},
"cache":{"warm_start_schedule_entries":0,"warm_start_blob_entries":0,"corrupt_skipped":0,"version_mismatch":0,"appends":0,"append_failures":0,"blob_hits":0,"blob_misses":0,"schedule_entries":0,"blob_entries":0,"log_size_bytes":0},
"pool":{
"pool":{"threads":0,"profiled":true,"task_count":0,"task_seconds_total":0},
"workers":[
{"worker":"0","tasks":0,"busy_seconds":0,"idle_seconds":0,"occupancy":0},
{"worker":"0","tasks":0,"busy_seconds":0,"idle_seconds":0,"occupancy":0},
{"worker":"external","tasks":0,"busy_seconds":0,"idle_seconds":0,"occupancy":0}
],
"task_histogram":{"bounds_us":[0,0,0,0,0,0,0,0,0,0,0,0,0],"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0]},
"sections":[
]}
}
)json";

// --- the server's documents ------------------------------------------------

TEST(JsonGolden, ResultFragmentWithoutCacheModel) {
  expect_golden(server::render_result_fragment(golden_flow(false)),
                kResultFragment, Shape::kFragment);
}

TEST(JsonGolden, ResultFragmentWithCacheModel) {
  expect_golden(server::render_result_fragment(golden_flow(true)),
                kResultFragmentCache, Shape::kFragment);
}

TEST(JsonGolden, PortfolioFragment) {
  expect_golden(server::render_portfolio_fragment(golden_portfolio(false)),
                kPortfolioFragment, Shape::kFragment);
  expect_golden(server::render_portfolio_fragment(golden_portfolio(true)),
                kPortfolioFragmentCache, Shape::kFragment);
}

TEST(JsonGolden, TimingsResponsesAndErrors) {
  // Three fields at UINT64_MAX: all five overflowed the 160-byte buffer
  // render_timings once had (see JsonWriter.TimingsAtUint64MaxStayWhole).
  const server::JobTimings timings{kMax, 46, kMax, 3, kMax};
  expect_golden(server::render_timings(timings), kTimings, Shape::kFragment);
  expect_golden(
      server::render_response(kHostileId, true, timings, "\"x\":1"),
      kResponseHit);
  expect_golden(server::render_response(kHostileId, false, "\"x\":1"),
                kResponseMiss);
  expect_golden(
      server::render_error_response(
          kHostileId, Error(ErrorCode::kServerQueueFull,
                            "queue \"full\"\\\n\t\x01 caf\xc3\xa9")),
      kErrorResponse);
  expect_golden(server::render_error_response(
                    "", Error(ErrorCode::kServerProtocol, "bad line")),
                kErrorResponseNoId);
}

// --- artifacts ------------------------------------------------------------

TEST(JsonGolden, PoolProfile) {
  runtime::PoolProfile profile;
  profile.threads = 1;
  profile.profiled = true;
  runtime::WorkerOccupancy worker;
  worker.tasks = 12;
  worker.busy_seconds = 0.1;
  worker.idle_seconds = 1e-7;
  runtime::WorkerOccupancy external;
  external.tasks = 1234567;
  external.busy_seconds = 1234567.0;
  profile.workers = {worker, external};
  profile.task_bounds_us = {1.0, 10.0, 2.5e5, 1e7};
  profile.task_counts = {0, 5, 1, 0, kMax};
  profile.task_count = 6;
  profile.task_seconds_total = 1.0 / 3.0;
  runtime::SectionProfile explore;
  explore.name = "explore \"colonies\"\\\n\t\x01";
  explore.invocations = 2;
  explore.tasks = 8;
  explore.serial_seconds = 1e-7;
  explore.wall_seconds = 0.1;
  explore.task_seconds = 0.3;
  explore.max_task_seconds = 0.05;
  runtime::SectionProfile idle;
  idle.name = "caf\xc3\xa9";
  profile.sections = {explore, idle};

  std::ostringstream out;
  profile.write_json(out);
  expect_golden(out.str(), kPoolProfile);
}

std::vector<trace::TraceEvent> golden_events() {
  std::vector<trace::TraceEvent> events;
  const auto add = [&](std::string name, trace::EventKind kind,
                       std::uint64_t ts, std::uint64_t dur, double value,
                       std::uint64_t trace_id, std::uint64_t span_id,
                       std::uint64_t parent_id) {
    trace::TraceEvent e;
    e.name = std::move(name);
    e.kind = kind;
    e.ts_us = ts;
    e.dur_us = dur;
    e.tid = static_cast<std::uint32_t>(events.size() + 1);
    e.value = value;
    e.trace_id = trace_id;
    e.span_id = span_id;
    e.parent_id = parent_id;
    events.push_back(std::move(e));
  };
  add("stage:\"explore\"", trace::EventKind::kSpan, 1, 2, 0.0, 3, 4, 0);
  add("plain\\span", trace::EventKind::kSpan, kMax, 0, 0.0, 0, 0, 0);
  add("tick\n", trace::EventKind::kInstant, 5, 0, 0.0, 0, 0, 0);
  add("c\t0.1", trace::EventKind::kCounter, 6, 0, 0.1, 0, 0, 0);
  add("ctl\x01", trace::EventKind::kCounter, 7, 0, 1234567.0, 0, 0, 0);
  add("caf\xc3\xa9", trace::EventKind::kCounter, 8, 0, 1e-7, 0, 0, 0);
  return events;
}

TEST(JsonGolden, ChromeTrace) {
  std::ostringstream out;
  trace::write_chrome_trace(out, golden_events());
  expect_golden(out.str(), kChromeTrace);
}

// --- /statusz ----------------------------------------------------------

/// `text` with every JSON number replaced by 0: /statusz's numbers are
/// clocks and process-wide counters, its layout is what is pinned.  A
/// number is `-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`, matched leftmost and
/// longest wherever it stands, inside strings too.
std::string mask_numbers(const std::string& text) {
  const auto digit = [&text](std::size_t i) {
    return i < text.size() && text[i] >= '0' && text[i] <= '9';
  };
  const auto skip_digits = [&digit](std::size_t i) {
    while (digit(i)) ++i;
    return i;
  };
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t first = text[i] == '-' ? i + 1 : i;
    if (!digit(first)) {
      out += text[i++];
      continue;
    }
    i = skip_digits(first);
    if (i < text.size() && text[i] == '.' && digit(i + 1))
      i = skip_digits(i + 1);
    if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
      const std::size_t sign =
          i + 1 < text.size() && (text[i + 1] == '+' || text[i + 1] == '-')
              ? i + 2
              : i + 1;
      if (digit(sign)) i = skip_digits(sign);
    }
    out += '0';
  }
  return out;
}

TEST(JsonGolden, StatuszWithOneQueuedJob) {
  // A fixed pool width, so the profile lists the same workers on any host;
  // the rebuilt pool starts with no sections.
  runtime::ThreadPool::set_default_jobs(2);
  server::ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  server::Server server(options);
  ASSERT_TRUE(server.start().has_value());

  // Pin the single worker so the submitted job provably sits in the queue.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_EQ(server.queue().push({0, [released] { released.wait(); }}),
            server::JobQueue::PushResult::kAccepted);
  while (server.queue().depth() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread submitter([&server] {
    server.process_line(
        "{\"id\":\"queued \\\"job\\\"\\\\\\t caf\xc3\xa9\",\"repeats\":1,"
        "\"kernel\":\"t = addu a, b\\nu = xor t, c\\nlive_out u\\n\"}");
  });
  while (server.queue().depth() != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const std::string statusz = server.render_statusz();
  release.set_value();
  submitter.join();
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
  runtime::ThreadPool::set_default_jobs(0);

  EXPECT_TRUE(testing::JsonChecker(statusz).valid()) << statusz;
  expect_golden(mask_numbers(statusz), kStatuszMasked);
}

// --- the writer ------------------------------------------------------------

TEST(JsonWriter, PlacesEveryComma) {
  std::string out;
  trace::JsonWriter json(out);
  json.begin_object()
      .key("a").integer(1)
      .key("b").begin_array().end_array()
      .key("c").begin_object().end_object()
      .key("d").begin_array()
      .integer(-2).string("x").boolean(false)
      .begin_object().key("e").raw("null").end_object()
      .begin_array().begin_array().end_array().end_array()
      .end_array()
      .end_object();
  EXPECT_EQ(out,
            R"({"a":1,"b":[],"c":{},"d":[-2,"x",false,{"e":null},[[]]]})");
  EXPECT_TRUE(testing::JsonChecker(out).valid());
}

TEST(JsonWriter, TopLevelMembersAreAFragmentThatRawEmbeds) {
  std::string fragment;
  trace::JsonWriter(fragment).key("x").integer(1).key("y").string("z");
  EXPECT_EQ(fragment, R"("x":1,"y":"z")");

  std::string out;
  trace::JsonWriter(out)
      .begin_object()
      .key("id").string("i")
      .raw(fragment)
      .end_object();
  EXPECT_EQ(out, R"({"id":"i","x":1,"y":"z"})");
}

TEST(JsonWriter, NewlineGoesAfterTheCommaAndEndsTopLevelDocuments) {
  std::string out;
  trace::JsonWriter json(out);
  json.begin_object().newline().key("a").begin_array();
  json.newline().integer(1).newline().integer(2).newline().end_array();
  json.newline().key("b").integer(3).end_object().newline();
  EXPECT_EQ(out, "{\n\"a\":[\n1,\n2\n],\n\"b\":3}\n");

  // One writer, several JSONL documents: no comma between lines.
  std::string lines;
  trace::JsonWriter jsonl(lines);
  jsonl.begin_object().end_object().newline();
  jsonl.begin_object().key("k").integer(1).end_object().newline();
  EXPECT_EQ(lines, "{}\n{\"k\":1}\n");
}

TEST(JsonWriter, EscapesEveryByteAsJsonEscapeDoes) {
  for (int b = 0; b < 256; ++b) {
    const std::string text = std::string("a") + static_cast<char>(b) + "z";
    std::string out;
    trace::JsonWriter(out).begin_object().key(text).string(text).end_object();
    const std::string escaped = trace::json_escape(text);
    const std::string quoted = "\"" + escaped + "\"";
    EXPECT_EQ(out, "{" + quoted + ":" + quoted + "}") << "byte " << b;
    EXPECT_TRUE(testing::JsonChecker(out).valid()) << "byte " << b;
  }
  EXPECT_EQ(trace::json_escape("\x1f\x7f\r\"\\"), "\\u001f\x7f\\r\\\"\\\\");
}

TEST(JsonWriter, NumbersMatchPrintfAndOstream) {
  const auto written = [](auto write) {
    std::string out;
    trace::JsonWriter json(out);
    write(json);
    return out;
  };
  const auto printed = [](const char* format, double x) {
    char buf[400];
    std::snprintf(buf, sizeof buf, format, x);
    return std::string(buf);
  };
  std::mt19937_64 rng(20080101);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-12, 15);
  for (int i = 0; i < 50000; ++i) {
    // Half arbitrary bit patterns, half values of the magnitudes the
    // documents carry (areas, rates, seconds).
    double x = unit(rng) * std::pow(10.0, exponent(rng));
    if (i % 2 == 0) {
      const std::uint64_t bits = rng();
      std::memcpy(&x, &bits, sizeof x);
      if (!std::isfinite(x)) continue;
    }
    std::ostringstream stream;
    stream << x;
    const std::string g =
        written([x](trace::JsonWriter& json) { json.number(x); });
    ASSERT_EQ(g, printed("%g", x));
    ASSERT_EQ(g, stream.str());
    for (const int digits : {3, 4, 6}) {
      const std::string format = "%." + std::to_string(digits) + "f";
      ASSERT_EQ(written([&](trace::JsonWriter& json) { json.fixed(x, digits); }),
                printed(format.c_str(), x))
          << digits;
    }
  }
  EXPECT_EQ(written([](trace::JsonWriter& json) {
              json.begin_array()
                  .integer(std::numeric_limits<int>::min())
                  .integer(std::numeric_limits<std::int64_t>::min())
                  .integer(kMax)
                  .integer(std::size_t{0})
                  .end_array();
            }),
            "[" + std::to_string(std::numeric_limits<int>::min()) + "," +
                std::to_string(std::numeric_limits<std::int64_t>::min()) +
                "," + std::to_string(kMax) + ",0]");
}

TEST(JsonWriter, TimingsAtUint64MaxStayWhole) {
  const std::string max = std::to_string(kMax);
  EXPECT_EQ(server::render_timings({kMax, kMax, kMax, kMax, kMax}),
            "\"timings\":{\"queue_wait_us\":" + max + ",\"validate_us\":" +
                max + ",\"explore_us\":" + max + ",\"cache_us\":" + max +
                ",\"total_us\":" + max + "}");
}

}  // namespace
}  // namespace isex
