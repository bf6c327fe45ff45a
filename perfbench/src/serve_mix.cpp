// serve_mix: an in-process server::Server on loopback TCP, driven by two
// client connections in a closed loop (each sends its next line after the
// reply, as tools/isex_client.py does).  Requests are mostly hits on jobs
// primed into the persistent log before a restart, with a fixed minority of
// misses: fresh explorations of blocks drawn from every block of the 20
// suite programs, under seeds never submitted before.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "flow/design_flow.hpp"
#include "isa/tac_parser.hpp"
#include "layers.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/persistent_cache.hpp"
#include "server/server.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace isex;

/// Hits per miss, chosen from measured latencies rather than a traffic
/// guess: on the sizing host (4 cores, two clients, one server worker) a
/// miss round trip took about 300 times as long as a hit on average, so at
/// this ratio each client spends about half its time on hits (0.49 measured
/// as server.hit_time_frac).  jobs_per_s then answers to hit handling
/// (protocol parse, job_signature, result-cache lookup, render, wire) as
/// much as to exploration.
constexpr int kHitsPerMiss = 300;
/// Seconds one client round (one miss plus kHitsPerMiss hits) takes on the
/// sizing host with both clients running; only sizes the plan.
constexpr double kRoundSeconds = 0.045;
constexpr int kClients = 2;
constexpr int kServerWorkers = 1;
constexpr std::size_t kVerifyEvery = 8;
/// History jobs use seed + kHistorySeedOffset + i; misses stay far below.
constexpr std::uint64_t kHistorySeedOffset = std::uint64_t{1} << 40;
/// The plan runs in chunks of one round per miss-pool block for each
/// client, so every chunk explores the same blocks and the rate can be the
/// median over chunks.  At least this many chunks, so each request class
/// has ten samples beyond its p90 even in half a traced run.
constexpr std::size_t kMinChunks = 4;
/// Combined result digest of the primed jobs at kDefaultSeed.
constexpr std::uint64_t kPinnedPrimedDigest = 0x23269049df2600cdULL;

struct Kernel {
  std::string label;
  std::string_view tac;
};

std::string request_line(const std::string& id, std::string_view tac,
                         std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"seed\":" + std::to_string(seed) +
         ",\"kernel\":\"" + trace::json_escape(tac) + "\"}";
}

struct Inputs {
  std::vector<SuiteProgram> suite;  ///< the 20 programs
  std::vector<Kernel> primed;       ///< hottest block of each paper program
  std::vector<std::string> hit_lines;  ///< the request of each primed job
  std::vector<Kernel> miss_pool;    ///< every block of every program
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.suite = load_suite(/*o0=*/true, /*o3=*/true, /*extended=*/true);
  for (const SuiteProgram& prog : in.suite) {
    for (std::size_t b = 0; b < prog.sources.size(); ++b) {
      const Kernel k{prog.label + "/" + prog.program.blocks[b].name,
                     prog.sources[b]};
      in.miss_pool.push_back(k);
      // Blocks come hottest first; the 14 paper programs are primed.
      if (b == 0 && in.primed.size() < 14) in.primed.push_back(k);
    }
  }
  for (std::size_t p = 0; p < in.primed.size(); ++p)
    in.hit_lines.push_back(
        request_line("h" + std::to_string(p), in.primed[p].tac, seed));
  return in;
}

/// What a client sends and expects.
struct Planned {
  bool hit = false;
  std::size_t primed = 0;  ///< index into Inputs::primed for a hit
  std::size_t round = 0;
  /// The request line of a miss; a hit sends Inputs::hit_lines[primed].
  std::string line;
  std::string_view tac;
};

/// One answered request.
struct Answer {
  Planned plan;
  bool ok = false;
  bool cache_hit = false;
  std::uint64_t digest = 0;
  double reduction = 0.0;
  double rtt_us = 0.0;
  double validate_us = 0.0;
  double cache_us = 0.0;
  double queue_wait_us = 0.0;
  double explore_us = 0.0;
  double total_us = 0.0;
  /// The reply, kept for misses and failures only: a run sends tens of
  /// thousands of hits.
  std::string response;
};

double number_after(const std::string& s, const char* key) {
  const std::size_t at = s.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(s.c_str() + at + std::strlen(key), nullptr);
}

std::string string_after(const std::string& s, const char* key) {
  const std::size_t at = s.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + std::strlen(key);
  const std::size_t end = s.find('"', begin);
  return end == std::string::npos ? "" : s.substr(begin, end - begin);
}

void parse_answer(Answer& a, const std::string& r) {
  a.ok = r.find("\"ok\":true") != std::string::npos;
  a.cache_hit = r.find("\"cache_hit\":true") != std::string::npos;
  a.digest = std::strtoull(
      string_after(r, "\"result_digest\":\"").c_str(), nullptr, 16);
  a.reduction = number_after(r, "\"reduction\":");
  a.validate_us = number_after(r, "\"validate_us\":");
  a.cache_us = number_after(r, "\"cache_us\":");
  a.queue_wait_us = number_after(r, "\"queue_wait_us\":");
  a.explore_us = number_after(r, "\"explore_us\":");
  a.total_us = number_after(r, "\"total_us\":");
}

/// A blocking JSON-lines connection to the server.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one line and returns the reply line.
  std::string round_trip(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    std::size_t newline;
    while ((newline = pending_.find('\n')) == std::string::npos) {
      char buf[1 << 14];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    std::string reply = pending_.substr(0, newline);
    pending_.erase(0, newline + 1);
    return reply;
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Client `client`'s plan: `rounds` × (one miss, kHitsPerMiss hits).  Each
/// client walks the whole miss pool in its own seeded order, so every run
/// explores the same block mix and only the search seeds differ.  Miss seeds
/// are unique across the run, so no miss repeats a signature that was
/// submitted (or is in flight) before.
std::vector<Planned> make_plan(const Inputs& in, std::uint64_t seed,
                               int client, std::size_t first_round,
                               std::size_t rounds) {
  std::uint64_t state =
      seed * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(client);
  Rng deck_rng(splitmix64(state));
  std::vector<std::size_t> deck(in.miss_pool.size());
  for (std::size_t i = 0; i < deck.size(); ++i) deck[i] = i;
  for (std::size_t i = deck.size(); i > 1; --i)
    std::swap(deck[i - 1],
              deck[deck_rng.next_below(static_cast<std::uint32_t>(i))]);

  Rng rng(splitmix64(state) + first_round);
  std::vector<Planned> plan;
  for (std::size_t r = first_round; r < first_round + rounds; ++r) {
    Planned miss;
    miss.round = r;
    miss.tac = in.miss_pool[deck[r % deck.size()]].tac;
    // Primed jobs use `seed`; misses use seed + 1 + a run-unique index.
    const std::uint64_t miss_seed =
        seed + 1 + r * kClients + static_cast<std::uint64_t>(client);
    miss.line = request_line("m" + std::to_string(client) + "." +
                                 std::to_string(r),
                             miss.tac, miss_seed);
    plan.push_back(std::move(miss));
    for (int h = 0; h < kHitsPerMiss; ++h) {
      Planned hit;
      hit.hit = true;
      hit.round = r;
      hit.primed = rng.next_below(static_cast<std::uint32_t>(in.primed.size()));
      hit.tac = in.primed[hit.primed].tac;
      plan.push_back(std::move(hit));
    }
  }
  return plan;
}

/// Answers client by client in plan order, plus the wall time.
struct Window {
  std::vector<std::vector<Answer>> answers;
  double seconds = 0.0;
  std::string error;
};

/// Runs each client's plan on its own connection, concurrently.
Window drive(std::uint16_t port, const std::vector<std::vector<Planned>>& plans,
             const std::vector<std::string>& hit_lines, SpanLog* log) {
  Window w;
  w.answers.resize(plans.size());
  std::vector<std::string> errors(plans.size());
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < plans.size(); ++c) {
      clients.emplace_back([&, c] {
        try {
          Connection conn(port);
          w.answers[c].reserve(plans[c].size());
          for (std::size_t i = 0; i < plans[c].size(); ++i) {
            Answer a;
            a.plan = plans[c][i];
            const std::string& line =
                a.plan.hit ? hit_lines[a.plan.primed] : a.plan.line;
            std::string response;
            const Clock::time_point t0 = Clock::now();
            if (log != nullptr) {
              const ScopedSpan span(*log, a.plan.hit ? "client.hit"
                                                     : "client.miss",
                                    0, c * 1000000 + i);
              response = conn.round_trip(line);
            } else {
              response = conn.round_trip(line);
            }
            a.rtt_us = seconds_since(t0) * 1e6;
            parse_answer(a, response);
            if (!a.plan.hit || !a.ok) a.response = std::move(response);
            w.answers[c].push_back(std::move(a));
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  w.seconds = seconds_since(start);
  for (const std::string& e : errors)
    if (!e.empty()) w.error = e;
  return w;
}

std::uint64_t statusz_count(const std::string& statusz, const char* key) {
  const double v = number_after(statusz, key);
  return v < 0 ? 0 : static_cast<std::uint64_t>(v);
}

server::ServerOptions server_options(const std::string& log_path) {
  server::ServerOptions o;
  o.cache_path = log_path;
  o.workers = kServerWorkers;
  return o;
}

/// The serving server on the persistent log.  restart() drains the running
/// instance, which flushes its appends, and starts a new one kSetupBurst
/// times, timing each Server::start(): the warm load of the whole log.
class Served {
 public:
  explicit Served(std::string log_path) : log_path_(std::move(log_path)) {}

  void restart() {
    for (int r = 0; r < kSetupBurst; ++r) {
      stop();
      server_ = std::make_unique<server::Server>(server_options(log_path_));
      const Clock::time_point t0 = Clock::now();
      const Expected<std::uint16_t> port = server_->start();
      start_s_.push_back(seconds_since(t0));
      if (!port) throw std::runtime_error(port.error().to_string());
    }
  }

  void stop() {
    if (server_ == nullptr) return;
    server_->request_drain();
    server_->wait();
    server_.reset();
  }

  server::Server& server() { return *server_; }
  const std::vector<double>& start_s() const { return start_s_; }

 private:
  std::string log_path_;
  std::unique_ptr<server::Server> server_;
  std::vector<double> start_s_;
};

/// The fragment a hit replays: the response minus the per-delivery head.
std::string fragment_of(const std::string& response) {
  const std::size_t timings = response.find("\"timings\":{");
  const std::size_t end = response.find("},", timings);
  if (timings == std::string::npos || end == std::string::npos) return "";
  return response.substr(end + 2, response.size() - end - 3);
}

/// Re-runs misses in-process with flow_config_for(request) and returns
/// those whose digest differs from the served one; traced, it composes the
/// flow from its stage functions.
std::set<const Answer*> verify_misses(
    const std::vector<const Answer*>& misses, SpanLog* log,
    CoreCounts* counts, std::vector<flow::ProfiledProgram>* programs,
    std::vector<core::ExplorationResult>* explorations) {
  std::set<const Answer*> bad;
  std::uint64_t job = 0;
  for (const Answer* a : misses) {
    Expected<server::JobRequest> request =
        server::parse_job_request(a->plan.line);
    Expected<isa::ParsedBlock> block = isa::parse_tac_checked(a->plan.tac);
    if (!request || !block) {
      bad.insert(a);
      continue;
    }
    flow::ProfiledProgram program;
    program.name = request->id;
    program.blocks.push_back(
        flow::ProfiledBlock{"kernel", std::move(block->graph), 1});
    const flow::FlowConfig config = server::flow_config_for(*request);
    flow::FlowResult result;
    if (log != nullptr) {
      std::vector<core::ExplorationResult> best;
      result = traced_design_flow(program, hw::HwLibrary::paper_default(),
                                  config, *log, job++, *counts, &best);
      for (core::ExplorationResult& e : best)
        explorations->push_back(std::move(e));
      programs->push_back(std::move(program));
    } else {
      result = flow::run_design_flow(program, hw::HwLibrary::paper_default(),
                                     config);
    }
    if (server::flow_result_digest(result) != a->digest) bad.insert(a);
  }
  return bad;
}

/// One phase of the plan, driven as consecutive chunks.
struct Phase {
  std::vector<Window> chunks;

  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Window& w : chunks)
      for (const std::vector<Answer>& client : w.answers)
        for (const Answer& a : client) fn(a);
  }

  /// Median over chunks of requests per second: every chunk does the same
  /// work, and a slow spell on a shared host lands in a few chunks, which
  /// the median drops.
  double jobs_per_s() const {
    std::vector<double> rates;
    for (const Window& w : chunks) {
      std::size_t n = 0;
      for (const std::vector<Answer>& client : w.answers) n += client.size();
      rates.push_back(static_cast<double>(n) / w.seconds);
    }
    return median(rates);
  }

  /// The misses re-run in-process: every kVerifyEvery-th round of each
  /// client (re-running all of them would double the run).
  std::vector<const Answer*> verified_misses() const {
    std::vector<const Answer*> out;
    for_each([&](const Answer& a) {
      if (a.ok && !a.plan.hit && a.plan.round % kVerifyEvery == 0)
        out.push_back(&a);
    });
    return out;
  }
};

}  // namespace

void run_serve_mix(const Options& opts, Report& report) {
  apply_thread_budget(kServerWorkers);
  const Inputs in = make_inputs(opts.seed);
  const std::string log_path = opts.scratch_dir + "/serve.log";
  std::filesystem::remove(log_path);

  // 1. Prime the persistent log with the hit jobs, then shut down.
  std::vector<std::uint64_t> primed_digest(in.primed.size());
  {
    server::Server primer(server_options(log_path));
    const Expected<std::uint16_t> port = primer.start();
    if (!port) throw std::runtime_error(port.error().to_string());
    std::uint64_t digest = 0;
    for (std::size_t p = 0; p < in.primed.size(); ++p) {
      Answer a;
      parse_answer(a, primer.process_line(in.hit_lines[p]));
      report.check(a.ok && !a.cache_hit, "priming " + in.primed[p].label);
      primed_digest[p] = a.digest;
      digest = mix_digest(digest, a.digest);
    }
    // History: every miss-pool block once, under seeds no miss uses, so
    // the restart loads a log of realistic size.
    for (std::size_t i = 0; i < in.miss_pool.size(); ++i) {
      Answer a;
      parse_answer(a, primer.process_line(request_line(
                          "history", in.miss_pool[i].tac,
                          opts.seed + kHistorySeedOffset + i)));
      report.check(a.ok, "history job " + in.miss_pool[i].label);
    }
    std::fprintf(stderr,
                 "perfbench: serve_mix primed %zu jobs, digest %s; miss pool "
                 "%zu blocks\n",
                 in.primed.size(), hex64(digest).c_str(), in.miss_pool.size());
    if (opts.seed == kDefaultSeed)
      report.check(digest == kPinnedPrimedDigest,
                   "serve_mix primed digest differs from the pinned value");
    primer.request_drain();
    primer.wait();
  }

  // 2. Serve from the primed log.  setup_s is Server::start() warm-loading
  // it; the server restarts before every chunk of the plan, so later starts
  // also load the misses served so far.
  Served served(log_path);
  served.restart();

  // 3. Untimed warm-up: round 0 of each client's plan.
  std::vector<std::vector<Planned>> warm;
  for (int c = 0; c < kClients; ++c)
    warm.push_back(make_plan(in, opts.seed, c, 0, 1));
  const Window warm_window =
      drive(served.server().port(), warm, in.hit_lines, nullptr);
  if (!warm_window.error.empty())
    throw std::runtime_error("warm-up: " + warm_window.error);

  const std::size_t chunk_rounds = in.miss_pool.size();
  const std::size_t rounds =
      plan_units(opts.seconds, kRoundSeconds * static_cast<double>(chunk_rounds),
                 kMinChunks) *
      chunk_rounds;
  // Rounds [first, first + count) as chunks of chunk_rounds, each driven by
  // both clients to completion before the next starts.
  const auto drive_phase = [&](std::size_t first, std::size_t count,
                               SpanLog* log) {
    Phase phase;
    phase.chunks.reserve(count / chunk_rounds);
    for (std::size_t r = first; r < first + count; r += chunk_rounds) {
      std::vector<std::vector<Planned>> plans;
      for (int c = 0; c < kClients; ++c)
        plans.push_back(make_plan(in, opts.seed, c, r, chunk_rounds));
      served.restart();
      phase.chunks.push_back(
          drive(served.server().port(), plans, in.hit_lines, log));
    }
    return phase;
  };

  const auto check_phase = [&](const Phase& phase,
                               const std::set<const Answer*>& bad_misses) {
    for (const Window& w : phase.chunks)
      if (!w.error.empty()) report.job_failed("client: " + w.error);
    phase.for_each([&](const Answer& a) {
      if (!a.ok)
        report.job_failed("error response: " + a.response.substr(0, 160));
      else if (a.cache_hit != a.plan.hit)
        report.job_failed(std::string("planned ") +
                          (a.plan.hit ? "hit" : "miss") + " answered as " +
                          (a.cache_hit ? "hit" : "miss"));
      else if (a.plan.hit && a.digest != primed_digest[a.plan.primed])
        report.job_failed("hit digest " + hex64(a.digest) + " != primed " +
                          hex64(primed_digest[a.plan.primed]));
      else if (bad_misses.count(&a) != 0)
        report.job_failed("miss " + a.plan.line.substr(0, 24) + " served " +
                          hex64(a.digest) + ", in-process run differs");
      else
        report.job_ok();
    });
  };
  const auto result_counts = [&](const std::string& before,
                                 const std::string& after) {
    return std::pair<std::uint64_t, std::uint64_t>{
        statusz_count(after, "\"cache_hits\":") -
            statusz_count(before, "\"cache_hits\":"),
        statusz_count(after, "\"cache_misses\":") -
            statusz_count(before, "\"cache_misses\":")};
  };

  if (!opts.trace) {
    const std::string before = served.server().render_statusz();
    const Phase phase = drive_phase(1, rounds, nullptr);
    const auto [hits, misses] =
        result_counts(before, served.server().render_statusz());
    served.stop();
    check_phase(phase, verify_misses(phase.verified_misses(), nullptr,
                                     nullptr, nullptr, nullptr));
    report.check(misses == rounds * kClients &&
                     hits == rounds * kClients * kHitsPerMiss,
                 "server result hits/misses differ from the plan");
    std::vector<double> reductions;
    phase.for_each([&](const Answer& a) {
      if (a.ok) reductions.push_back(a.reduction * 100.0);
    });
    report.metric("setup_s", median(served.start_s()), "s");
    report.metric("jobs_per_s", phase.jobs_per_s(), "1/s");
    report.metric("reduction_pct", mean(reductions), "%");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: the first half of the plan untraced, the second half with
  // a client span per request; then the sampled misses of the traced half
  // are re-run in-process through the traced flow composition.
  add_zero_layer_metrics(report);
  const std::size_t half =
      std::max(kMinChunks / 2, rounds / chunk_rounds / 2) * chunk_rounds;
  const Phase untraced = drive_phase(1, half, nullptr);

  runtime::ThreadPool& pool = runtime::ThreadPool::default_pool();
  const PoolWindow pool_window(pool);
  const runtime::CacheStats eval0 = runtime::schedule_cache().stats();
  const std::string before = served.server().render_statusz();
  SpanLog log;
  const Phase traced = drive_phase(1 + half, half, &log);
  const auto [result_hits, result_misses] =
      result_counts(before, served.server().render_statusz());
  const runtime::CacheStats eval1 = runtime::schedule_cache().stats();
  const auto traced_misses = static_cast<double>(half * kClients);
  report.metric("runtime.pool.busy_frac", pool_window.busy_frac(), "ratio");
  report.metric("runtime.pool.tasks",
                static_cast<double>(pool_window.tasks()) / traced_misses,
                "count");
  report.metric("runtime.pool.steals",
                static_cast<double>(pool_window.steals()) / traced_misses,
                "count");
  const std::uint64_t eval_hits = eval1.hits - eval0.hits;
  const std::uint64_t lookups = eval_hits + eval1.misses - eval0.misses;
  report.metric("runtime.eval_cache.hit_rate",
                lookups > 0 ? static_cast<double>(eval_hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "ratio");
  report.metric("runtime.eval_cache.lookups",
                static_cast<double>(lookups) / traced_misses, "count");
  report.check(result_misses == half * kClients &&
                   result_hits == half * kClients * kHitsPerMiss,
               "server result hits/misses differ from the plan");
  report.metric("server.result_hits", static_cast<double>(result_hits),
                "count");
  report.metric("server.result_misses", static_cast<double>(result_misses),
                "count");
  report.metric("runtime.persist.log_bytes",
                static_cast<double>(std::filesystem::file_size(log_path)),
                "bytes");
  add_trace_overhead(report, untraced.jobs_per_s(), traced.jobs_per_s());

  // Class latencies come from the untraced half, like end-to-end metrics;
  // hits and misses are never pooled.
  std::vector<double> hit_ms, miss_ms;
  untraced.for_each([&](const Answer& a) {
    if (a.ok) (a.plan.hit ? hit_ms : miss_ms).push_back(a.rtt_us * 1e-3);
  });
  report.check(percentile_reportable(miss_ms.size(), 0.9) &&
                   percentile_reportable(hit_ms.size(), 0.9),
               "too few samples for a p90");
  report.metric("server.hit_ms_p50", median(hit_ms), "ms");
  report.metric("server.hit_ms_p90", percentile(hit_ms, 0.9), "ms");
  report.metric("server.miss_ms_p50", median(miss_ms), "ms");
  report.metric("server.miss_ms_p90", percentile(miss_ms, 0.9), "ms");
  double hit_ms_sum = 0.0;
  double miss_ms_sum = 0.0;
  for (const double ms : hit_ms) hit_ms_sum += ms;
  for (const double ms : miss_ms) miss_ms_sum += ms;
  report.metric("server.hit_time_frac",
                hit_ms_sum / std::max(1e-9, hit_ms_sum + miss_ms_sum),
                "ratio");
  std::vector<double> validate_us, cache_us, wire_us, queue_ms, explore_ms;
  traced.for_each([&](const Answer& a) {
    if (!a.ok) return;
    validate_us.push_back(a.validate_us);
    cache_us.push_back(a.cache_us);
    if (a.plan.hit) {
      wire_us.push_back(a.rtt_us - a.total_us);
    } else {
      queue_ms.push_back(a.queue_wait_us * 1e-3);
      explore_ms.push_back(a.explore_us * 1e-3);
    }
  });
  report.metric("server.validate_us_p50", median(validate_us), "us");
  report.metric("server.cache_us_p50", median(cache_us), "us");
  report.metric("server.wire_us_p50", median(wire_us), "us");
  report.metric("server.queue_wait_ms_p50", median(queue_ms), "ms");
  report.metric("server.explore_ms_p50", median(explore_ms), "ms");
  served.stop();

  // Layer probes on the hit lines: protocol parse, signature, render (of a
  // served fragment: a miss's, since only misses keep their reply).
  {
    std::vector<double> parse_us, signature_us, render_us;
    const Answer* sample = nullptr;
    traced.for_each([&](const Answer& a) {
      if (a.ok && !a.plan.hit) sample = &a;
    });
    const std::string fragment =
        sample != nullptr ? fragment_of(sample->response) : "";
    for (std::size_t p = 0; p < in.primed.size(); ++p) {
      const std::string& line = in.hit_lines[p];
      for (int r = 0; r < 15; ++r) {
        Clock::time_point t0 = Clock::now();
        Expected<server::JobRequest> request = server::parse_job_request(line);
        parse_us.push_back(seconds_since(t0) * 1e6);
        Expected<isa::ParsedBlock> block =
            isa::parse_tac_checked(in.primed[p].tac);
        if (!request || !block) break;
        t0 = Clock::now();
        const runtime::Key128 key = server::job_signature(block->graph, *request);
        signature_us.push_back(seconds_since(t0) * 1e6);
        t0 = Clock::now();
        const std::string response =
            server::render_response("h", true, server::JobTimings{}, fragment);
        render_us.push_back(seconds_since(t0) * 1e6);
        if (response.empty() || key.lo == 0xffffffffffffffffULL) break;
      }
    }
    report.metric("server.parse_us", median(parse_us), "us");
    report.metric("server.signature_us", median(signature_us), "us");
    report.metric("server.render_us", median(render_us), "us");
  }
  // Warm start on its own: the log read behind Server::start().
  {
    std::vector<double> load_ms;
    runtime::PersistLoadReport loaded;
    for (int r = 0; r < kSetupBurst; ++r) {
      runtime::EvalCache scratch_cache;
      runtime::PersistentEvalCache cache(log_path);
      const Clock::time_point t0 = Clock::now();
      loaded = cache.load(&scratch_cache);
      load_ms.push_back(seconds_since(t0) * 1e3);
    }
    report.metric("runtime.persist.load_ms", median(load_ms), "ms");
    report.metric("runtime.persist.records",
                  static_cast<double>(loaded.schedule_entries +
                                      loaded.blob_entries),
                  "count");
  }

  check_phase(untraced, verify_misses(untraced.verified_misses(), nullptr,
                                      nullptr, nullptr, nullptr));
  const std::vector<const Answer*> misses = traced.verified_misses();
  CoreCounts counts;
  std::vector<flow::ProfiledProgram> programs;
  std::vector<core::ExplorationResult> explorations;
  SpanLog flow_log;
  check_phase(traced, verify_misses(misses, &flow_log, &counts, &programs,
                                    &explorations));
  const std::vector<Span> spans = flow_log.spans();
  add_flow_layer_metrics(report, spans, counts,
                         static_cast<double>(misses.size()));
  std::vector<Span> all = log.spans();
  all.insert(all.end(), spans.begin(), spans.end());
  SpanLog merged;
  for (const Span& s : all) merged.record(s);
  merged.write(opts.scratch_dir + "/spans-serve_mix.jsonl");

  std::vector<const dfg::Graph*> blocks;
  for (const flow::ProfiledProgram& p : programs)
    blocks.push_back(&p.blocks.front().graph);
  const sched::MachineConfig machine = sched::MachineConfig::make(2, {6, 3});
  const WalkProbe walk = probe_walk(blocks, machine, opts.seed);
  report.metric("core.walk_ns_per_node", walk.ns_per_node, "ns");
  report.metric("core.walk_allocs", walk.allocs_per_walk, "count");
  report.metric("sched.cycles_ns_per_node",
                probe_schedule_ns_per_node(blocks, machine), "ns");
  report.metric("dfg.candidate_eval_ns",
                probe_candidate_eval_ns(committed_sets(blocks, explorations),
                                        machine),
                "ns");
  std::vector<std::string_view> sources;
  for (const Answer* a : misses) sources.push_back(a->plan.tac);
  for (const Kernel& k : in.primed) sources.push_back(k.tac);
  report.metric("isa.parse_us", probe_parse_us(sources), "us");
}

}  // namespace perfbench
