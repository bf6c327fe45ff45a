// isex_serve server subsystem: JobQueue admission control, the wire
// protocol's parse/signature/render layer, deterministic queue-full and
// drain semantics through Server::process_line, and socket end-to-end
// round trips including the warm-cache restart path.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "isa/tac_parser.hpp"
#include "runtime/eval_cache.hpp"
#include "server/job_queue.hpp"
#include "server/protocol.hpp"

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
  EXPECT_EQ(request->issue, 2);
  EXPECT_EQ(request->read_ports, 6);
  EXPECT_EQ(request->write_ports, 3);
  EXPECT_EQ(request->repeats, 5);
  EXPECT_EQ(request->seed, 1u);
  EXPECT_EQ(request->colonies, 1);
  EXPECT_EQ(request->merge_interval, 8);
  EXPECT_FALSE(request->has_area_budget);
  EXPECT_FALSE(request->baseline);
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
  EXPECT_EQ(request->issue, 4);
  EXPECT_EQ(request->read_ports, 8);
  EXPECT_EQ(request->write_ports, 4);
  EXPECT_EQ(request->repeats, 2);
  // Full 64-bit seeds survive the JSON number path.
  EXPECT_EQ(request->seed, 18446744073709551615ull);
  EXPECT_TRUE(request->has_area_budget);
  EXPECT_DOUBLE_EQ(request->area_budget, 1500.5);
  EXPECT_EQ(request->max_ises, 7);
  EXPECT_TRUE(request->baseline);
  EXPECT_EQ(request->colonies, 4);
  EXPECT_EQ(request->merge_interval, 3);
}

TEST(Protocol, ParseRejectsUnknownFieldAndBadJson) {
  const auto typo = parse_job_request("{\"kernel\":\"k\",\"repeast\":3}");
  ASSERT_FALSE(typo.has_value());
  EXPECT_EQ(typo.error().code(), ErrorCode::kServerProtocol);

  for (const char* bad :
       {"", "not json", "{\"kernel\":", "[1,2]", "{\"id\":\"x\"}",
        "{\"kernel\":\"k\",\"priority\":\"high\"}"}) {
    const auto request = parse_job_request(bad);
    EXPECT_FALSE(request.has_value()) << bad;
    if (!request.has_value())
      EXPECT_EQ(request.error().code(), ErrorCode::kServerProtocol) << bad;
  }
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
  variant.seed = 2;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.issue = 4;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.repeats = 9;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.area_budget = 1000.0;
  variant.has_area_budget = true;
  EXPECT_NE(job_signature(block->graph, variant), key);
  variant = base;
  variant.baseline = true;
  EXPECT_NE(job_signature(block->graph, variant), key);

  // Colonies reshape the search, so they separate signatures; the merge
  // interval only matters once there is more than one colony.
  variant = base;
  variant.colonies = 4;
  const runtime::Key128 four = job_signature(block->graph, variant);
  EXPECT_NE(four, key);
  variant.merge_interval = 3;
  EXPECT_NE(job_signature(block->graph, variant), four);

  // The id and priority are delivery concerns, not evaluation parameters.
  variant = base;
  variant.id = "renamed";
  variant.priority = 9;
  EXPECT_EQ(job_signature(block->graph, variant), key);

  // With a single colony the merge interval is inert — no merges ever
  // happen — so varying it must NOT fragment the cache.
  variant = base;
  variant.merge_interval = 99;
  EXPECT_EQ(job_signature(block->graph, variant), key);

  const auto other = isa::parse_tac_checked(kSigmaKernel);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(job_signature(other->graph, base), key);
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

TEST(Server, RepeatSubmissionIsABitIdenticalCacheHit) {
  ServerOptions options;
  options.port = 0;
  Server server(options);
  ASSERT_TRUE(server.start().has_value());

  // A kernel miss memoizes through the process cache, the one the persist
  // sink writes through: emptied first, it must gain fresh insertions.
  runtime::EvalCache& process = runtime::schedule_cache();
  process.clear();
  const std::uint64_t insertions_before = process.stats().insertions;
  const std::string first =
      server.process_line(job_line(kBlendKernel, "first"));
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_GT(process.stats().insertions, insertions_before);
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
          "\"jobs\"", "\"job_latency\"", "\"queue_wait\"", "\"cache\"",
          "\"pool\"", "\"workers\"", "\"task_histogram\""})
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
