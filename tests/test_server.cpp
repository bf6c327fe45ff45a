// isex_serve server subsystem: JobQueue admission control, the wire
// protocol's parse/signature/render layer, deterministic queue-full and
// drain semantics through Server::process_line, kernel admission through
// the kernel memo, and socket end-to-end round trips including the
// warm-cache restart path.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_suite/extended.hpp"
#include "bench_suite/kernels.hpp"
#include "isa/tac_parser.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/hash.hpp"
#include "server/job_queue.hpp"
#include "server/kernel_memo.hpp"
#include "server/protocol.hpp"
#include "trace/metrics.hpp"

namespace isex::server {
namespace {

// Small real kernels (examples/kernels flavor), inline so the tests are
// hermetic.
constexpr const char* kBlendKernel =
    "ia = subu 255, alpha\n"
    "m0 = mult fg, alpha\n"
    "m1 = mult bg, ia\n"
    "s = addu m0, m1\n"
    "blend = srl s, 8\n"
    "live_out blend\n";

constexpr const char* kSigmaKernel =
    "r7a = srl x, 7\n"
    "r7b = sll x, 25\n"
    "r7 = or r7a, r7b\n"
    "s3 = srl x, 3\n"
    "sigma = xor r7, s3\n"
    "live_out sigma\n";

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n')
      out += "\\n";
    else if (c == '"' || c == '\\')
      out += std::string("\\") + c;
    else
      out += c;
  }
  return out;
}

std::string job_line(const char* kernel, const std::string& id,
                     const std::string& extra = "") {
  std::string line =
      "{\"id\":\"" + id + "\",\"kernel\":\"" + json_escape(kernel) +
      "\",\"repeats\":2";
  if (!extra.empty()) line += "," + extra;
  return line + "}";
}

std::string extract_field(const std::string& response, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  while (end < response.size() && response[end] != ',' &&
         response[end] != '}')
    ++end;
  return response.substr(begin, end - begin);
}

/// Two-program portfolio request over the blend and sigma kernels, each
/// text after `prefix` (a comment there changes the text, not the graph).
std::string portfolio_line(const std::string& id,
                           const std::string& extra = "",
                           const std::string& prefix = "") {
  std::string line =
      "{\"id\":\"" + id + "\",\"programs\":[{\"name\":\"blend\","
      "\"kernel\":\"" + json_escape(prefix + kBlendKernel) +
      "\",\"weight\":2},{\"name\":\"sigma\",\"kernel\":\"" +
      json_escape(prefix + kSigmaKernel) + "\"}],\"repeats\":2";
  if (!extra.empty()) line += "," + extra;
  return line + "}";
}

/// A response without its per-delivery `"timings":{...},` object.
std::string without_timings(const std::string& response) {
  const std::size_t begin = response.find("\"timings\":{");
  if (begin == std::string::npos) return response;
  const std::size_t end = response.find("},", begin);
  return response.substr(0, begin) + response.substr(end + 2);
}

/// A response without its per-delivery fields, `timings` and `cache_hit`.
std::string delivery_free(const std::string& response) {
  std::string out = without_timings(response);
  for (const char* hit : {"\"cache_hit\":true,", "\"cache_hit\":false,"}) {
    const std::size_t at = out.find(hit);
    if (at != std::string::npos) out.erase(at, std::strlen(hit));
  }
  return out;
}

/// The result fragment of a success response: everything after timings.
std::string fragment(const std::string& response) {
  const std::size_t begin = response.find("\"timings\":{");
  if (begin == std::string::npos) return "";
  return response.substr(response.find("},", begin) + 2);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

void wait_for_depth(JobQueue& queue, std::size_t depth) {
  for (int i = 0; i < 5000; ++i) {
    if (queue.depth() == depth) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "queue never reached depth " << depth;
}

// ---------------------------------------------------------------------------
// JobQueue: the admission-control contract.

TEST(JobQueue, PopsHigherPriorityFirstAndFifoWithin) {
  JobQueue queue(16);
  std::vector<int> order;
  auto job = [&order](int tag) {
    return QueuedJob{0, [&order, tag] { order.push_back(tag); }};
  };
  QueuedJob low1 = job(1), low2 = job(2), high = job(3), mid = job(4);
  low1.priority = 0;
  low2.priority = 0;
  high.priority = 5;
  mid.priority = 2;
  EXPECT_EQ(queue.push(std::move(low1)), JobQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(std::move(low2)), JobQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(std::move(high)), JobQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(std::move(mid)), JobQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.depth(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    popped->run();
  }
  // High before mid before the two lows; equal priorities keep FIFO order.
  EXPECT_EQ(order, (std::vector<int>{3, 4, 1, 2}));
}

TEST(JobQueue, RejectsWhenFull) {
  JobQueue queue(2);
  EXPECT_EQ(queue.push({0, [] {}}), JobQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push({0, [] {}}), JobQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push({9, [] {}}), JobQueue::PushResult::kFull);
  EXPECT_EQ(queue.depth(), 2u);  // the rejected job left no residue
  queue.pop();
  EXPECT_EQ(queue.push({0, [] {}}), JobQueue::PushResult::kAccepted);
}

TEST(JobQueue, CloseDrainsAcceptedJobsThenUnblocks) {
  JobQueue queue(8);
  int ran = 0;
  queue.push({1, [&ran] { ++ran; }});
  queue.push({2, [&ran] { ++ran; }});
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.push({0, [] {}}), JobQueue::PushResult::kClosed);
  // Accepted jobs still drain, in priority order, then pop() returns empty.
  auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 2);
  first->run();
  auto second = queue.pop();
  ASSERT_TRUE(second.has_value());
  second->run();
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueue, PopBlocksUntilPushArrives) {
  JobQueue queue(4);
  std::promise<int> popped;
  std::thread consumer([&queue, &popped] {
    auto job = queue.pop();
    popped.set_value(job.has_value() ? job->priority : -1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.push({7, [] {}});
  EXPECT_EQ(popped.get_future().get(), 7);
  consumer.join();
}

// ---------------------------------------------------------------------------
// Protocol: parsing, signatures, rendering.

TEST(Protocol, ParseFillsDefaults) {
  const auto request =
      parse_job_request("{\"kernel\":\"a = addu b, c\\nlive_out a\\n\"}");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->kernel, "a = addu b, c\nlive_out a\n");
  EXPECT_EQ(request->priority, 0);
  const flow::FlowConfig& config = request->config;
  EXPECT_EQ(config.machine.issue_width, 2);
  EXPECT_EQ(config.machine.reg_file.read_ports, 6);
  EXPECT_EQ(config.machine.reg_file.write_ports, 3);
  EXPECT_EQ(config.repeats, 5);
  EXPECT_EQ(config.seed, 1u);
  EXPECT_EQ(config.params.colonies, 1);
  EXPECT_EQ(config.params.merge_interval, 8);
  EXPECT_EQ(config.constraints.area_budget,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(config.algorithm, flow::Algorithm::kMultiIssue);
}

TEST(Protocol, ParseReadsEveryField) {
  const auto request = parse_job_request(
      "{\"id\":\"j1\",\"kernel\":\"k\",\"priority\":3,\"issue\":4,"
      "\"read_ports\":8,\"write_ports\":4,\"repeats\":2,"
      "\"seed\":18446744073709551615,\"area_budget\":1500.5,"
      "\"max_ises\":7,\"baseline\":true,"
      "\"colonies\":4,\"merge_interval\":3}");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->id, "j1");
  EXPECT_EQ(request->priority, 3);
  const flow::FlowConfig& config = request->config;
  EXPECT_EQ(config.machine.issue_width, 4);
  EXPECT_EQ(config.machine.reg_file.read_ports, 8);
  EXPECT_EQ(config.machine.reg_file.write_ports, 4);
  EXPECT_EQ(config.repeats, 2);
  // Full 64-bit seeds survive the JSON number path.
  EXPECT_EQ(config.seed, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(config.constraints.area_budget, 1500.5);
  EXPECT_EQ(config.constraints.max_ises, 7);
  EXPECT_EQ(config.algorithm, flow::Algorithm::kSingleIssue);
  EXPECT_EQ(config.params.colonies, 4);
  EXPECT_EQ(config.params.merge_interval, 3);
}

TEST(Protocol, ParseRejectsUnknownFieldAndBadJson) {
  const auto typo = parse_job_request("{\"kernel\":\"k\",\"repeast\":3}");
  ASSERT_FALSE(typo.has_value());
  EXPECT_EQ(typo.error().code(), ErrorCode::kServerProtocol);

  // Numbers follow RFC 8259's grammar and must fit their field; strings
  // carry no raw control character.
  for (const char* bad :
       {"", "not json", "{\"kernel\":", "[1,2]", "{\"id\":\"x\"}",
        "{\"kernel\":\"k\",\"priority\":\"high\"}",
        "{\"kernel\":\"k\",\"repeats\":3-1}",
        "{\"kernel\":\"k\",\"area_budget\":--3}",
        "{\"kernel\":\"k\",\"area_budget\":1.2.3}",
        "{\"kernel\":\"k\",\"repeats\":+3}",
        "{\"kernel\":\"k\",\"area_budget\":.5}",
        "{\"kernel\":\"k\",\"repeats\":012}",
        "{\"kernel\":\"k\",\"area_budget\":1e999}",
        "{\"kernel\":\"k\",\"seed\":12345678901234567890123}",
        "{\"kernel\":\"k\tk\"}"}) {
    const auto request = parse_job_request(bad);
    EXPECT_FALSE(request.has_value()) << bad;
    if (!request.has_value()) {
      EXPECT_EQ(request.error().code(), ErrorCode::kServerProtocol) << bad;
    }
  }
  // Nesting is capped: a line of brackets cannot recurse off the stack.
  const auto deep = parse_job_request("{\"kernel\":\"k\",\"x\":" +
                                      std::string(100000, '[') + "}");
  ASSERT_FALSE(deep.has_value());
  EXPECT_EQ(deep.error().code(), ErrorCode::kServerProtocol);
}

// A request whose id is `escaped_id` (JSON escapes, as sent on the wire).
Expected<JobRequest> request_with_id(const std::string& escaped_id) {
  return parse_job_request("{\"id\":\"" + escaped_id +
                           "\",\"kernel\":\"k\"}");
}

/// The request is rejected with E0601 for an unpaired surrogate whose
/// escape starts at `offset` in the line.
void expect_unpaired_surrogate(const std::string& escaped_id,
                               std::size_t offset) {
  const auto request = request_with_id(escaped_id);
  ASSERT_FALSE(request.has_value()) << escaped_id;
  EXPECT_EQ(request.error().code(), ErrorCode::kServerProtocol);
  EXPECT_EQ(request.error().message(),
            "unpaired surrogate in \\u escape at offset " +
                std::to_string(offset))
      << escaped_id;
}

// `{"id":"` is 7 bytes, so an id's first escape starts at offset 7.
TEST(Protocol, SurrogatePairBecomesOneUtf8Character) {
  const auto request = request_with_id("emoji \\ud83d\\ude00!");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->id, "emoji \xf0\x9f\x98\x80!");  // U+1F600
  const auto lowest = request_with_id("\\uD800\\uDC00");
  ASSERT_TRUE(lowest.has_value());
  EXPECT_EQ(lowest->id, "\xf0\x90\x80\x80");  // U+10000
  const auto highest = request_with_id("\\udbff\\udfff");
  ASSERT_TRUE(highest.has_value());
  EXPECT_EQ(highest->id, "\xf4\x8f\xbf\xbf");  // U+10FFFF
}

TEST(Protocol, LoneHighSurrogateIsRejected) {
  expect_unpaired_surrogate("ab\\ud83d cd", 9);
}

TEST(Protocol, LoneLowSurrogateIsRejected) {
  expect_unpaired_surrogate("\\ude00", 7);
  // A low surrogate before a high one is not a pair either.
  expect_unpaired_surrogate("\\ude00\\ud83d", 7);
}

TEST(Protocol, HighSurrogateBeforeANonLowEscapeIsRejected) {
  expect_unpaired_surrogate("\\ud83dA", 7);
  expect_unpaired_surrogate("\\ud83d\\u0041", 7);
  expect_unpaired_surrogate("x\\ud83d\\ud83d\\ude00", 8);
}

TEST(Protocol, HighSurrogateAtTheEndOfAStringIsRejected) {
  expect_unpaired_surrogate("end \\ud83d", 11);
  // Kernels and program names go through the same parser.
  const auto kernel = parse_job_request("{\"kernel\":\"t\\ud800\"}");
  ASSERT_FALSE(kernel.has_value());
  EXPECT_EQ(kernel.error().message(),
            "unpaired surrogate in \\u escape at offset 12");
}

TEST(Protocol, JobSignatureSeparatesEveryResultAffectingParameter) {
  const auto block = isa::parse_tac_checked(kBlendKernel);
  ASSERT_TRUE(block.has_value());
  JobRequest base;
  base.kernel = kBlendKernel;
  const runtime::Key128 key = job_signature(block->graph, base);

  // Same graph + same parameters → same key (the cache contract)...
  EXPECT_EQ(job_signature(block->graph, base), key);

  // ...and every parameter that changes the result changes the key.
  JobRequest variant = base;
  variant.config.seed = 2;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.config.machine = sched::MachineConfig::make(4, {6, 3});
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.config.repeats = 9;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.config.constraints.area_budget = 1000.0;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.config.algorithm = flow::Algorithm::kSingleIssue;
  EXPECT_NE(job_signature(block->graph, variant), key);

  // Colonies reshape the search, so they separate signatures; the merge
  // interval only matters once there is more than one colony.
  variant = base;
  variant.config.params.colonies = 4;
  const runtime::Key128 four = job_signature(block->graph, variant);
  EXPECT_NE(four, key);
  variant.config.params.merge_interval = 3;
  EXPECT_NE(job_signature(block->graph, variant), four);

  // The id and priority are delivery concerns, not evaluation parameters.
  variant = base;
  variant.id = "renamed";
  variant.priority = 9;
  EXPECT_EQ(job_signature(block->graph, variant), key);

  // With a single colony the merge interval is inert — no merges ever
  // happen — so varying it must NOT fragment the cache.
  variant = base;
  variant.config.params.merge_interval = 99;
  EXPECT_EQ(job_signature(block->graph, variant), key);

  const auto other = isa::parse_tac_checked(kSigmaKernel);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(job_signature(other->graph, base), key);
}

// The persisted result cache is keyed on these signatures, so a log written
// by an older server stays warm only while they hold.  Both constants were
// captured before job_signature and portfolio_signature gained their
// graph-digest overloads; the graph overloads now delegate to those.
TEST(Protocol, SignaturesMatchPinnedValues) {
  const Expected<JobRequest> job = parse_job_request(
      "{\"id\":\"pin\",\"kernel\":\"" + json_escape(kBlendKernel) +
      "\",\"issue\":4,\"read_ports\":10,\"write_ports\":5,\"repeats\":3,"
      "\"seed\":77,\"colonies\":2,\"merge_interval\":4,\"max_ises\":3,"
      "\"area_budget\":5000,\"cache_config\":\"l1_size=2k,l1_ways=2\"}");
  ASSERT_TRUE(job.has_value());
  const auto blend = isa::parse_tac_checked(kBlendKernel);
  const auto sigma = isa::parse_tac_checked(kSigmaKernel);
  ASSERT_TRUE(blend.has_value());
  ASSERT_TRUE(sigma.has_value());
  const runtime::Key128 job_key = job_signature(blend->graph, *job);
  EXPECT_EQ(job_key.lo, 0xdcb2054a49b0894fULL);
  EXPECT_EQ(job_key.hi, 0x043e71b0925c90c1ULL);

  const Expected<JobRequest> portfolio = parse_job_request(
      "{\"id\":\"pin\",\"programs\":[{\"kernel\":\"" +
      json_escape(kBlendKernel) + "\",\"weight\":3},{\"kernel\":\"" +
      json_escape(kSigmaKernel) + "\",\"weight\":1.5}],\"seed\":9}");
  ASSERT_TRUE(portfolio.has_value());
  const std::vector<const dfg::Graph*> graphs{&blend->graph, &sigma->graph};
  const runtime::Key128 portfolio_key = portfolio_signature(graphs, *portfolio);
  EXPECT_EQ(portfolio_key.lo, 0x0229dc753f784154ULL);
  EXPECT_EQ(portfolio_key.hi, 0x0be72943660f1356ULL);
}

TEST(Protocol, DigestOverloadsMatchGraphOverloadsOnEverySuiteBlock) {
  namespace bs = bench_suite;
  std::vector<std::string_view> sources;
  for (const bs::OptLevel level : {bs::OptLevel::kO0, bs::OptLevel::kO3}) {
    for (const bs::Benchmark b : bs::all_benchmarks())
      for (const bs::KernelBlockDef& def : bs::kernel_blocks(b, level))
        sources.push_back(def.tac);
    for (const bs::ExtraBenchmark b : bs::all_extra_benchmarks())
      for (const bs::KernelBlockDef& def : bs::extra_kernel_blocks(b, level))
        sources.push_back(def.tac);
  }
  ASSERT_GT(sources.size(), 40u);

  const Expected<JobRequest> tuned = parse_job_request(
      "{\"kernel\":\"k\",\"issue\":4,\"repeats\":2,\"seed\":5,"
      "\"colonies\":3,\"area_budget\":900,\"baseline\":true,"
      "\"cache_config\":\"l1_size=4k\"}");
  ASSERT_TRUE(tuned.has_value());
  JobRequest portfolio = *tuned;
  std::vector<isa::ParsedBlock> blocks;
  blocks.reserve(sources.size());
  std::vector<const dfg::Graph*> graphs;
  std::vector<runtime::Key128> digests;
  for (std::size_t k = 0; k < sources.size(); ++k) {
    Expected<isa::ParsedBlock> block = isa::parse_tac_checked(sources[k]);
    ASSERT_TRUE(block.has_value()) << sources[k];
    blocks.push_back(std::move(*block));
    const dfg::Graph& graph = blocks.back().graph;
    const runtime::Key128 digest = runtime::graph_digest(graph);
    for (const JobRequest& request : {JobRequest{}, *tuned})
      EXPECT_EQ(job_signature(digest, request),
                job_signature(graph, request))
          << sources[k];
    graphs.push_back(&graph);
    digests.push_back(digest);
    portfolio.programs.push_back(PortfolioProgramSpec{
        std::to_string(k), std::string(sources[k]),
        1.0 + static_cast<double>(k % 3)});
  }
  EXPECT_EQ(portfolio_signature(digests, portfolio),
            portfolio_signature(graphs, portfolio));
}

TEST(Protocol, ErrorResponseCarriesStableCode) {
  const Error error(ErrorCode::kServerQueueFull, "queue is full (64 jobs)");
  const std::string line = render_error_response("job-9", error);
  EXPECT_NE(line.find("\"id\":\"job-9\""), std::string::npos);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("\"error_code\":\"E0602\""), std::string::npos);
  EXPECT_NE(line.find("server-queue-full"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server: deterministic admission control through process_line.

TEST(Server, QueueFullAndDrainSemantics) {
  ServerOptions options;
  options.port = 0;
  options.queue_capacity = 1;
  options.workers = 1;
  Server server(options);
  ASSERT_TRUE(server.start().has_value());

  // Occupy the single worker with a job we control, so queue occupancy is
  // deterministic from here on.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_EQ(server.queue().push({0, [released] { released.wait(); }}),
            JobQueue::PushResult::kAccepted);
  wait_for_depth(server.queue(), 0);  // the worker has picked it up

  // A real job fills the one queue slot and waits on its future.
  std::string first_response;
  std::thread submitter([&server, &first_response] {
    first_response = server.process_line(job_line(kBlendKernel, "queued"));
  });
  wait_for_depth(server.queue(), 1);

  // The next submission hits the bound: stable E0602, nothing enqueued.
  const std::string full = server.process_line(
      job_line(kSigmaKernel, "overflow", "\"seed\":2"));
  EXPECT_NE(full.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(full.find("\"error_code\":\"E0602\""), std::string::npos);
  EXPECT_EQ(server.queue().depth(), 1u);

  // Drain: new work is rejected with E0603, accepted work still completes.
  server.request_drain();
  const std::string draining = server.process_line(
      job_line(kSigmaKernel, "late", "\"seed\":3"));
  EXPECT_NE(draining.find("\"error_code\":\"E0603\""), std::string::npos);

  release.set_value();
  submitter.join();
  EXPECT_NE(first_response.find("\"id\":\"queued\""), std::string::npos);
  EXPECT_NE(first_response.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(server.wait(), 0);
}

TEST(Server, SeparateServersShareNoEvalCache) {
  // Each server explores through its own evaluation cache, so a second
  // server answers a cold portfolio request exactly as the first did: its
  // eval_hits count its own work, not evaluations the first one cached.
  // One repeat per program, so the batch's two explorations share no key:
  // concurrent repeats of one block can both miss on its first key, which
  // makes a hit count depend on timing.
  const std::string request =
      "{\"id\":\"pf\",\"programs\":[{\"name\":\"blend\",\"kernel\":\"" +
      json_escape(kBlendKernel) + "\"},{\"name\":\"sigma\",\"kernel\":\"" +
      json_escape(kSigmaKernel) + "\"}],\"repeats\":1}";
  Server first(ServerOptions{});
  Server second(ServerOptions{});
  ASSERT_TRUE(first.start().has_value());
  ASSERT_TRUE(second.start().has_value());
  const std::string a = first.process_line(request);
  const std::string b = second.process_line(request);
  ASSERT_NE(a.find("\"ok\":true"), std::string::npos) << a;
  EXPECT_NE(b.find("\"cache_hit\":false"), std::string::npos) << b;
  EXPECT_EQ(delivery_free(a), delivery_free(b));
  EXPECT_EQ(first.eval_cache().stats().misses,
            second.eval_cache().stats().misses);
  first.request_drain();
  second.request_drain();
  EXPECT_EQ(first.wait(), 0);
  EXPECT_EQ(second.wait(), 0);
}

TEST(Server, RepeatSubmissionIsABitIdenticalCacheHit) {
  ServerOptions options;
  options.port = 0;
  Server server(options);
  ASSERT_TRUE(server.start().has_value());

  // A kernel miss memoizes through the server's own cache, the one the
  // persist sink writes through: it must gain fresh insertions.
  const runtime::EvalCache& evals = server.eval_cache();
  const std::uint64_t insertions_before = evals.stats().insertions;
  const std::string first =
      server.process_line(job_line(kBlendKernel, "first"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_GT(evals.stats().insertions, insertions_before);
  const std::string digest = extract_field(first, "result_digest");
  ASSERT_FALSE(digest.empty());

  const std::string repeat =
      server.process_line(job_line(kBlendKernel, "second"));
  EXPECT_NE(repeat.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(extract_field(repeat, "result_digest"), digest);
  // Identical modulo the per-delivery fields: the cached fragment replays
  // verbatim.
  EXPECT_EQ(first.substr(first.find("\"reduction\"")),
            repeat.substr(repeat.find("\"reduction\"")));

  const std::string invalid =
      server.process_line("{\"kernel\":\"a = bogus b\\n\"}");
  EXPECT_NE(invalid.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(invalid.find("\"error_code\":\"E01"), std::string::npos);

  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(Server, ResponsesCarryPerJobTimings) {
  ServerOptions options;
  options.port = 0;
  Server server(options);
  ASSERT_TRUE(server.start().has_value());

  const std::string miss =
      server.process_line(job_line(kBlendKernel, "timed"));
  ASSERT_NE(miss.find("\"ok\":true"), std::string::npos) << miss;
  ASSERT_NE(miss.find("\"timings\":{"), std::string::npos) << miss;
  for (const char* field : {"queue_wait_us", "validate_us", "explore_us",
                            "cache_us", "total_us"})
    EXPECT_FALSE(extract_field(miss, field).empty()) << field << ": " << miss;
  // A real exploration ran: explore time is nonzero and inside the total.
  const std::uint64_t explore_us = std::stoull(extract_field(miss,
                                                             "explore_us"));
  const std::uint64_t total_us = std::stoull(extract_field(miss, "total_us"));
  EXPECT_GT(explore_us, 0u);
  EXPECT_GE(total_us, explore_us);

  // The cache hit still reports timings (zero explore), and the result
  // payload stays bit-identical to the miss (timings precede the fragment).
  const std::string hit =
      server.process_line(job_line(kBlendKernel, "timed2"));
  ASSERT_NE(hit.find("\"cache_hit\":true"), std::string::npos) << hit;
  ASSERT_NE(hit.find("\"timings\":{"), std::string::npos) << hit;
  EXPECT_EQ(extract_field(hit, "explore_us"), "0");
  EXPECT_EQ(hit.substr(hit.find("\"reduction\"")),
            miss.substr(miss.find("\"reduction\"")));

  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(Server, StatuszShowsQueuedJobWhileInFlight) {
  ServerOptions options;
  options.port = 0;
  options.queue_capacity = 4;
  options.workers = 1;
  Server server(options);
  ASSERT_TRUE(server.start().has_value());

  // Pin the single worker so a submitted job provably sits in the queue.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_EQ(server.queue().push({0, [released] { released.wait(); }}),
            JobQueue::PushResult::kAccepted);
  wait_for_depth(server.queue(), 0);

  std::string response;
  std::thread submitter([&server, &response] {
    response = server.process_line(job_line(kBlendKernel, "observed"));
  });
  wait_for_depth(server.queue(), 1);

  const std::string statusz = server.render_statusz();
  EXPECT_NE(statusz.find("\"id\":\"observed\""), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"stage\":\"queued\""), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"depth\":1"), std::string::npos) << statusz;

  release.set_value();
  submitter.join();
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);

  // Completed: the job left the inflight table.
  const std::string after = server.render_statusz();
  EXPECT_EQ(after.find("\"id\":\"observed\""), std::string::npos) << after;

  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(Server, WarmStartAnswersFromDiskWithZeroReExploration) {
  const std::string cache_path =
      ::testing::TempDir() + "isex_server_warm_start.cache";
  std::remove(cache_path.c_str());

  std::string digest;
  {
    ServerOptions options;
    options.port = 0;
    options.cache_path = cache_path;
    Server server(options);
    ASSERT_TRUE(server.start().has_value());
    const std::string response =
        server.process_line(job_line(kBlendKernel, "cold"));
    ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    digest = extract_field(response, "result_digest");
    server.request_drain();
    ASSERT_EQ(server.wait(), 0);
  }
  {
    ServerOptions options;
    options.port = 0;
    options.cache_path = cache_path;
    Server server(options);
    ASSERT_TRUE(server.start().has_value());
    const std::string response =
        server.process_line(job_line(kBlendKernel, "warm"));
    // Answered from the warm-started disk log: a hit, bit-identical.
    EXPECT_NE(response.find("\"cache_hit\":true"), std::string::npos)
        << response;
    EXPECT_EQ(extract_field(response, "result_digest"), digest);
    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
  }
  std::remove(cache_path.c_str());
}

// ---------------------------------------------------------------------------
// The kernel memo: admission answered from remembered digests.

TEST(ServerKernelMemo, RepeatedTextIsAMemoHitAndAnswersLikeAParsedHit) {
  const std::string cache_path =
      ::testing::TempDir() + "isex_server_kernel_memo.cache";
  std::remove(cache_path.c_str());
  ServerOptions options;
  options.cache_path = cache_path;

  // /metrics counts admissions process-wide, by outcome.
  trace::Counter& memo_hits = trace::MetricsRegistry::global().counter(
      "isex_server_kernel_memo_hits_total");
  trace::Counter& memo_misses = trace::MetricsRegistry::global().counter(
      "isex_server_kernel_memo_misses_total");
  const double hits_before = memo_hits.value();
  const double misses_before = memo_misses.value();

  std::string memo_hit;
  {
    Server server(options);
    ASSERT_TRUE(server.start().has_value());
    const std::string miss =
        server.process_line(job_line(kBlendKernel, "memo"));
    ASSERT_NE(miss.find("\"cache_hit\":false"), std::string::npos) << miss;
    const KernelMemo::Stats before = server.kernel_memo().stats();
    EXPECT_EQ(before.hits, 0u);
    EXPECT_EQ(before.misses, 1u);
    EXPECT_EQ(before.parses, 1u);
    EXPECT_EQ(before.entries, 1u);
    EXPECT_EQ(before.bytes, std::strlen(kBlendKernel));

    memo_hit = server.process_line(job_line(kBlendKernel, "memo"));
    ASSERT_NE(memo_hit.find("\"cache_hit\":true"), std::string::npos)
        << memo_hit;
    const KernelMemo::Stats after = server.kernel_memo().stats();
    EXPECT_EQ(after.hits, 1u);
    EXPECT_EQ(after.misses, 1u);
    EXPECT_EQ(after.parses, 1u);  // the hit parsed nothing
    EXPECT_EQ(fragment(memo_hit), fragment(miss));
    EXPECT_EQ(memo_hits.value() - hits_before, 1.0);
    EXPECT_EQ(memo_misses.value() - misses_before, 1.0);
    server.request_drain();
    ASSERT_EQ(server.wait(), 0);
  }

  // A server with an empty memo answers the same line from the warm log
  // after parsing the kernel: byte for byte the same response.
  Server fresh(options);
  ASSERT_TRUE(fresh.start().has_value());
  const std::string parsed_hit =
      fresh.process_line(job_line(kBlendKernel, "memo"));
  ASSERT_NE(parsed_hit.find("\"cache_hit\":true"), std::string::npos)
      << parsed_hit;
  EXPECT_EQ(fresh.kernel_memo().stats().hits, 0u);
  EXPECT_EQ(fresh.kernel_memo().stats().parses, 1u);
  EXPECT_EQ(without_timings(memo_hit), without_timings(parsed_hit));
  fresh.request_drain();
  EXPECT_EQ(fresh.wait(), 0);
  std::remove(cache_path.c_str());
}

// tests/data/warm_start.*: a result log written by the server before it
// had a kernel memo, the request lines it was sent, and its cache-hit
// answer to each.  Every line must still hit the result cache — parsed the
// first time, from the memo the second — and answer as that server did,
// byte for byte apart from timings.
TEST(ServerKernelMemo, OlderServersLogWarmStartsWithZeroMisses) {
  const std::string data = ISEX_TEST_DATA_DIR;
  const std::string cache_path =
      ::testing::TempDir() + "isex_server_older_log.cache";
  std::filesystem::copy_file(
      data + "/warm_start.cache", cache_path,
      std::filesystem::copy_options::overwrite_existing);
  const std::vector<std::string> requests =
      read_lines(data + "/warm_start_requests.jsonl");
  const std::vector<std::string> answers =
      read_lines(data + "/warm_start_responses.jsonl");
  ASSERT_EQ(requests.size(), 4u);
  ASSERT_EQ(answers.size(), requests.size());

  ServerOptions options;
  options.cache_path = cache_path;
  Server server(options);
  ASSERT_TRUE(server.start().has_value());
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < requests.size(); ++i)
      EXPECT_EQ(without_timings(server.process_line(requests[i])),
                without_timings(answers[i]))
          << "pass " << pass << ": " << requests[i];
  // Three distinct texts (the portfolio reuses the first two), each parsed
  // once.
  const KernelMemo::Stats stats = server.kernel_memo().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.parses, 3u);
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
  std::remove(cache_path.c_str());
}

// The same four requests answered cold by a server with no log: exploring
// afresh must render what the older server stored, byte for byte apart
// from the per-delivery `timings` and `cache_hit`.
TEST(ServerKernelMemo, ColdAnswersMatchOlderServersBytes) {
  const std::string data = ISEX_TEST_DATA_DIR;
  const std::vector<std::string> requests =
      read_lines(data + "/warm_start_requests.jsonl");
  const std::vector<std::string> answers =
      read_lines(data + "/warm_start_responses.jsonl");
  ASSERT_EQ(requests.size(), 4u);
  ASSERT_EQ(answers.size(), requests.size());

  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(delivery_free(server.process_line(requests[i])),
              delivery_free(answers[i]))
        << requests[i];
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServerKernelMemo, TextVariantMissesTheMemoButHitsTheResultCache) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  const std::string first =
      server.process_line(job_line(kBlendKernel, "variant"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  const std::string digest = extract_field(first, "result_digest");

  // Same statements, different bytes: the memo compares texts exactly, so
  // each variant is parsed, and each reaches the same graph and result.
  const std::string blend = kBlendKernel;
  for (const std::string& variant :
       {"# a leading comment\n" + blend, "  " + blend, blend + "\n\n",
        blend + "# trailing comment\n"}) {
    const KernelMemo::Stats before = server.kernel_memo().stats();
    const std::string response =
        server.process_line(job_line(variant.c_str(), "variant"));
    EXPECT_NE(response.find("\"cache_hit\":true"), std::string::npos)
        << response;
    EXPECT_EQ(extract_field(response, "result_digest"), digest);
    EXPECT_EQ(fragment(response), fragment(first));
    const KernelMemo::Stats after = server.kernel_memo().stats();
    EXPECT_EQ(after.misses, before.misses + 1) << variant;
    EXPECT_EQ(after.hits, before.hits) << variant;
    EXPECT_EQ(after.entries, before.entries + 1) << variant;
  }
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServerKernelMemo, InvalidKernelGetsItsCodeOnEverySubmission) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  const char* const invalid[] = {"a = bogus b\n", "a = addu a, b\n",
                                 "t = addu a, b\nlive_out ghost\n"};
  for (const char* kernel : invalid) {
    std::string code;
    for (int submission = 0; submission < 3; ++submission) {
      const std::string response =
          server.process_line(job_line(kernel, "bad"));
      EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
          << response;
      const std::string this_code = extract_field(response, "error_code");
      EXPECT_EQ(this_code.rfind("\"E01", 0), 0u) << response;
      if (submission == 0) code = this_code;
      EXPECT_EQ(this_code, code) << kernel;
    }
  }
  // Errors are never memoized: every submission was parsed.
  const KernelMemo::Stats stats = server.kernel_memo().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 9u);
  EXPECT_EQ(stats.parses, 9u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServerKernelMemo, MemoizedKernelUnderANewSeedExploresParsingOnce) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  ASSERT_NE(server.process_line(job_line(kSigmaKernel, "s", "\"seed\":5"))
                .find("\"cache_hit\":false"),
            std::string::npos);

  const KernelMemo::Stats before = server.kernel_memo().stats();
  const std::string reseeded =
      server.process_line(job_line(kSigmaKernel, "s", "\"seed\":6"));
  ASSERT_NE(reseeded.find("\"ok\":true"), std::string::npos) << reseeded;
  EXPECT_NE(reseeded.find("\"cache_hit\":false"), std::string::npos);
  const KernelMemo::Stats after = server.kernel_memo().stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.parses, before.parses + 1);  // once, for the exploration

  // A server that parses the kernel at admission explores to the same
  // result.
  Server cold(ServerOptions{});
  ASSERT_TRUE(cold.start().has_value());
  const std::string parsed =
      cold.process_line(job_line(kSigmaKernel, "s", "\"seed\":6"));
  EXPECT_EQ(cold.kernel_memo().stats().parses, 1u);
  EXPECT_EQ(without_timings(reseeded), without_timings(parsed));

  cold.request_drain();
  EXPECT_EQ(cold.wait(), 0);
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServerKernelMemo, PortfolioRequestRepeatsThroughTheMemo) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  const std::string first = server.process_line(portfolio_line("pf"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache_hit\":false"), std::string::npos);
  KernelMemo::Stats stats = server.kernel_memo().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.parses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // Both programs' kernels come from the memo, and the result from the
  // result cache.
  const std::string repeat = server.process_line(portfolio_line("pf"));
  EXPECT_NE(repeat.find("\"cache_hit\":true"), std::string::npos) << repeat;
  EXPECT_EQ(fragment(repeat), fragment(first));
  stats = server.kernel_memo().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.parses, 2u);

  // Under a new seed the result misses; each program is parsed once.
  const std::string reseeded =
      server.process_line(portfolio_line("pf", "\"seed\":3"));
  ASSERT_NE(reseeded.find("\"ok\":true"), std::string::npos) << reseeded;
  EXPECT_NE(reseeded.find("\"cache_hit\":false"), std::string::npos);
  stats = server.kernel_memo().stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.parses, 4u);

  // A server that parses both kernels at admission computes the same.  Its
  // own eval cache first explores the seed-1 portfolio, as this server's
  // did, through comment variants of the kernels, so the seed-3 texts are
  // still parsed.
  Server cold(ServerOptions{});
  ASSERT_TRUE(cold.start().has_value());
  ASSERT_NE(cold.process_line(portfolio_line("pf", "", "# variant\n"))
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(without_timings(reseeded),
            without_timings(cold.process_line(
                portfolio_line("pf", "\"seed\":3"))));
  EXPECT_EQ(cold.kernel_memo().stats().parses, 4u);
  cold.request_drain();
  EXPECT_EQ(cold.wait(), 0);
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServerKernelMemo, StaysWithinItsBoundsAndAnswersRight) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  const std::string first =
      server.process_line(job_line(kBlendKernel, "bound"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  const std::string digest = extract_field(first, "result_digest");
  // Every text below is a comment variant of the blend kernel: one graph,
  // so every answer is a result-cache hit with the first answer's digest.
  const std::string blend = kBlendKernel;
  const auto expect_right = [&](const std::string& kernel) {
    const std::string response =
        server.process_line(job_line(kernel.c_str(), "bound"));
    EXPECT_NE(response.find("\"cache_hit\":true"), std::string::npos)
        << response.substr(0, 200);
    EXPECT_EQ(extract_field(response, "result_digest"), digest);
    const KernelMemo::Stats stats = server.kernel_memo().stats();
    EXPECT_LE(stats.entries, KernelMemo::kMaxEntries);
    EXPECT_LE(stats.bytes, KernelMemo::kMaxBytes);
  };

  // More distinct texts than the entry bound: the insertion that would
  // exceed it clears the memo first.
  const std::size_t extra = 8;
  for (std::size_t i = 0; i < KernelMemo::kMaxEntries + extra; ++i)
    expect_right("# entry " + std::to_string(i) + "\n" + blend);
  KernelMemo::Stats stats = server.kernel_memo().stats();
  EXPECT_EQ(stats.misses, 1 + KernelMemo::kMaxEntries + extra);
  EXPECT_EQ(stats.entries, 1 + extra);
  // The newest text survived the clear.
  const std::size_t newest = KernelMemo::kMaxEntries + extra - 1;
  expect_right("# entry " + std::to_string(newest) + "\n" + blend);
  EXPECT_EQ(server.kernel_memo().stats().hits, stats.hits + 1);

  // More bytes than the byte bound, in texts just under the size bound.
  const std::string pad(KernelMemo::kMaxKernelBytes - 256, 'x');
  const std::size_t fit = KernelMemo::kMaxBytes / (pad.size() + blend.size());
  for (std::size_t i = 0; i < fit + 2; ++i)
    expect_right("# " + pad + std::to_string(i) + "\n" + blend);
  stats = server.kernel_memo().stats();
  EXPECT_LT(stats.entries, fit + 2);

  // A text over the size bound is answered but never stored.
  const std::string huge =
      "# " + std::string(KernelMemo::kMaxKernelBytes, 'x') + "\n" + blend;
  expect_right(huge);
  expect_right(huge);
  const KernelMemo::Stats after = server.kernel_memo().stats();
  EXPECT_EQ(after.misses, stats.misses + 2);
  EXPECT_EQ(after.hits, stats.hits);
  EXPECT_EQ(after.entries, stats.entries);
  EXPECT_EQ(after.bytes, stats.bytes);

  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServerKernelMemo, ConcurrentSubmissionsShareOneMemo) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.start().has_value());
  const std::string blend_digest = extract_field(
      server.process_line(job_line(kBlendKernel, "c")), "result_digest");
  const std::string sigma_digest = extract_field(
      server.process_line(job_line(kSigmaKernel, "c")), "result_digest");
  ASSERT_FALSE(blend_digest.empty());
  ASSERT_FALSE(sigma_digest.empty());

  constexpr int kRequests = 64;
  std::atomic<int> wrong{0};
  const auto client = [&](int thread) {
    for (int i = 0; i < kRequests; ++i) {
      // Both threads send the two shared kernels; every fourth pair is a
      // text only this thread sends.
      const bool blend = i % 2 == 0;
      std::string kernel = blend ? kBlendKernel : kSigmaKernel;
      if (i % 4 >= 2)
        kernel = "# thread " + std::to_string(thread) + " request " +
                 std::to_string(i) + "\n" + kernel;
      const std::string response =
          server.process_line(job_line(kernel.c_str(), "c"));
      if (response.find("\"cache_hit\":true") == std::string::npos ||
          extract_field(response, "result_digest") !=
              (blend ? blend_digest : sigma_digest))
        ++wrong;
    }
    // One exploration each: a memoized kernel under a seed of its own.
    const std::string explored = server.process_line(job_line(
        kSigmaKernel, "c", "\"seed\":" + std::to_string(100 + thread)));
    if (explored.find("\"cache_hit\":false") == std::string::npos ||
        explored.find("\"ok\":true") == std::string::npos)
      ++wrong;
  };
  std::thread first(client, 0);
  std::thread second(client, 1);
  first.join();
  second.join();
  EXPECT_EQ(wrong.load(), 0);

  const KernelMemo::Stats stats = server.kernel_memo().stats();
  const std::uint64_t own_texts = 2 * kRequests / 2;
  EXPECT_EQ(stats.misses, 2 + own_texts);
  EXPECT_EQ(stats.hits + stats.misses, 2 + 2 * (kRequests + 1));
  EXPECT_EQ(stats.entries, 2 + own_texts);
  EXPECT_EQ(stats.parses, stats.misses + 2);
  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

// ---------------------------------------------------------------------------
// Socket end-to-end: the wire path (connect, JSON lines, HTTP endpoints).

class Connection {
 public:
  Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_raw(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
  }

  std::string read_line() {
    std::string line;
    char c;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line += c;
    }
    return line;
  }

  std::string read_all() {
    std::string body;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buffer, sizeof buffer, 0)) > 0)
      body.append(buffer, static_cast<std::size_t>(n));
    return body;
  }

 private:
  int fd_ = -1;
};

TEST(Server, SocketEndToEndWithMetricsAndHealth) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  Server server(options);
  const Expected<std::uint16_t> port = server.start();
  ASSERT_TRUE(port.has_value());

  {
    Connection conn(*port);
    ASSERT_TRUE(conn.ok());
    conn.send_raw(job_line(kSigmaKernel, "wire", "\"seed\":7") + "\n");
    const std::string first = conn.read_line();
    ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
    EXPECT_NE(first.find("\"cache_hit\":false"), std::string::npos);

    // Same connection, same job: answered from cache, digest unchanged.
    conn.send_raw(job_line(kSigmaKernel, "wire2", "\"seed\":7") + "\n");
    const std::string repeat = conn.read_line();
    EXPECT_NE(repeat.find("\"cache_hit\":true"), std::string::npos);
    EXPECT_EQ(extract_field(repeat, "result_digest"),
              extract_field(first, "result_digest"));
  }
  {
    Connection scrape(*port);
    ASSERT_TRUE(scrape.ok());
    scrape.send_raw("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    const std::string metrics = scrape.read_all();
    EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(metrics.find("isex_server_job_cache_hits_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("isex_server_jobs_completed_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("isex_server_connections_total"),
              std::string::npos);
    // The repeat's kernel came from the memo (the counters are
    // process-wide, so only a lower bound holds here).
    const std::size_t memo_hits =
        metrics.find("\nisex_server_kernel_memo_hits_total ");
    ASSERT_NE(memo_hits, std::string::npos) << metrics;
    EXPECT_GE(std::stod(metrics.substr(metrics.find(' ', memo_hits + 1))),
              1.0);
    EXPECT_NE(metrics.find("\nisex_server_kernel_memo_misses_total "),
              std::string::npos);
  }
  {
    Connection health(*port);
    ASSERT_TRUE(health.ok());
    health.send_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    const std::string body = health.read_all();
    EXPECT_NE(body.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(body.find("ok"), std::string::npos);
  }

  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

TEST(Server, StatuszEndpointServesIntrospectionJson) {
  ServerOptions options;
  options.port = 0;
  Server server(options);
  const Expected<std::uint16_t> port = server.start();
  ASSERT_TRUE(port.has_value());

  // One real job so the latency histogram and job counters are populated.
  {
    Connection conn(*port);
    ASSERT_TRUE(conn.ok());
    conn.send_raw(job_line(kSigmaKernel, "sz", "\"seed\":11") + "\n");
    ASSERT_NE(conn.read_line().find("\"ok\":true"), std::string::npos);
  }
  {
    Connection scrape(*port);
    ASSERT_TRUE(scrape.ok());
    scrape.send_raw("GET /statusz HTTP/1.1\r\nHost: t\r\n\r\n");
    const std::string body = scrape.read_all();
    EXPECT_NE(body.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(body.find("application/json"), std::string::npos);
    // Shape: every top-level section of the introspection document.
    for (const char* key :
         {"\"uptime_us\"", "\"draining\"", "\"queue\"", "\"inflight\"",
          "\"jobs\"", "\"kernel_memo\"", "\"job_latency\"",
          "\"queue_wait\"", "\"cache\"", "\"pool\"", "\"workers\"",
          "\"task_histogram\""})
      EXPECT_NE(body.find(key), std::string::npos) << key << "\n" << body;
    EXPECT_NE(body.find("\"capacity\":64"), std::string::npos) << body;
    const std::string accepted = extract_field(body, "accepted");
    ASSERT_FALSE(accepted.empty());
    EXPECT_GE(std::stoull(accepted), 1u);
  }
  {
    // The Prometheus view carries the matching histogram buckets and the
    // queue-depth gauge.
    Connection scrape(*port);
    ASSERT_TRUE(scrape.ok());
    scrape.send_raw("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    const std::string metrics = scrape.read_all();
    EXPECT_NE(metrics.find("# TYPE isex_server_job_latency_seconds "
                           "histogram"),
              std::string::npos);
    EXPECT_NE(metrics.find("isex_server_job_latency_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(metrics.find("isex_server_queue_wait_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(metrics.find("isex_server_queue_depth"), std::string::npos);
  }

  server.request_drain();
  EXPECT_EQ(server.wait(), 0);
}

}  // namespace
}  // namespace isex::server
