#include "server/server.hpp"

#include <cerrno>
#include <cstring>
#include <functional>
#include <future>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "hwlib/hw_library.hpp"
#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace isex::server {
namespace {

/// send() that survives partial writes and never raises SIGPIPE.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string http_response(int status, const char* reason,
                          const std::string& body,
                          const char* content_type = "text/plain") {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "; version=0.0.4\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::vector<double> job_latency_bounds() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
          0.5,   1.0,    2.5,   5.0,  10.0,  30.0, 60.0};
}

std::vector<double> queue_wait_bounds() {
  return {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
          0.05,   0.1,     0.25,   0.5,   1.0,    5.0,   10.0};
}

/// The TAC text of kernel `k` of a request: its `kernel`, or the k-th
/// portfolio program's.
const std::string& kernel_text(const JobRequest& request, std::size_t k) {
  return request.is_portfolio() ? request.programs[k].kernel : request.kernel;
}

void write_histogram(trace::JsonWriter& json, std::string_view key,
                     const trace::Histogram& h) {
  json.newline().key(key).begin_object().key("bounds_s").begin_array();
  for (const double bound : h.bounds()) json.number(bound);
  json.end_array().key("counts").begin_array();
  for (const std::uint64_t count : h.bin_counts()) json.integer(count);
  json.end_array()
      .key("count").integer(h.count())
      .key("sum_s").fixed(h.sum(), 6).end_object();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      connections_metric_(&trace::MetricsRegistry::global().counter(
          "isex_server_connections_total")),
      jobs_accepted_(&trace::MetricsRegistry::global().counter(
          "isex_server_jobs_accepted_total")),
      jobs_rejected_full_(&trace::MetricsRegistry::global().counter(
          "isex_server_jobs_rejected_total",
          {{"reason", "queue-full"}})),
      jobs_rejected_draining_(&trace::MetricsRegistry::global().counter(
          "isex_server_jobs_rejected_total",
          {{"reason", "shutting-down"}})),
      jobs_invalid_(&trace::MetricsRegistry::global().counter(
          "isex_server_jobs_invalid_total")),
      jobs_completed_(&trace::MetricsRegistry::global().counter(
          "isex_server_jobs_completed_total")),
      jobs_failed_(&trace::MetricsRegistry::global().counter(
          "isex_server_jobs_failed_total")),
      result_hits_(&trace::MetricsRegistry::global().counter(
          "isex_server_job_cache_hits_total")),
      result_misses_(&trace::MetricsRegistry::global().counter(
          "isex_server_job_cache_misses_total")),
      kernel_memo_hits_(&trace::MetricsRegistry::global().counter(
          "isex_server_kernel_memo_hits_total")),
      kernel_memo_misses_(&trace::MetricsRegistry::global().counter(
          "isex_server_kernel_memo_misses_total")),
      warm_start_entries_(&trace::MetricsRegistry::global().gauge(
          "isex_server_warm_start_entries")),
      inflight_gauge_(&trace::MetricsRegistry::global().gauge(
          "isex_server_jobs_inflight")),
      queue_capacity_gauge_(&trace::MetricsRegistry::global().gauge(
          "isex_server_queue_capacity")),
      job_latency_(&trace::MetricsRegistry::global().histogram(
          "isex_server_job_latency_seconds", job_latency_bounds())),
      queue_wait_(&trace::MetricsRegistry::global().histogram(
          "isex_server_queue_wait_seconds", queue_wait_bounds())) {
  queue_capacity_gauge_->set(static_cast<double>(queue_.capacity()));
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) {
    request_drain();
    wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (drain_pipe_[0] >= 0) ::close(drain_pipe_[0]);
  if (drain_pipe_[1] >= 0) ::close(drain_pipe_[1]);
}

Expected<std::uint16_t> Server::start() {
  // Warm start: replay persisted schedule evaluations into this server's
  // cache and index persisted job results, then wire the sink so fresh
  // evaluations stream back to the log.
  cache_ = std::make_unique<runtime::PersistentEvalCache>(options_.cache_path);
  load_report_ = cache_->load(&eval_cache_);
  const runtime::PersistLoadReport& loaded = load_report_;
  for (const Error& e : loaded.report.issues())
    std::fprintf(stderr, "isex_serve: %s\n", e.to_string().c_str());
  warm_start_entries_->set(
      static_cast<double>(loaded.schedule_entries + loaded.blob_entries));
  if (!options_.cache_path.empty()) {
    runtime::PersistentEvalCache* cache = cache_.get();
    eval_cache_.set_persist_sink(
        [cache](const runtime::Key128& key, int value) {
          cache->put_schedule_eval(key, value);
        });
  }

  if (::pipe(drain_pipe_) != 0)
    return Error(ErrorCode::kPersistIo,
                 std::string("pipe: ") + std::strerror(errno));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Error(ErrorCode::kPersistIo,
                 std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    return Error(ErrorCode::kPersistIo,
                 "invalid listen address '" + options_.host + "'");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0)
    return Error(ErrorCode::kPersistIo,
                 "cannot listen on " + options_.host + ":" +
                     std::to_string(options_.port) + ": " +
                     std::strerror(errno));
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  int workers = options_.workers;
  if (workers <= 0) workers = std::min(4, runtime::ThreadPool::default_jobs());
  worker_count_ = workers;
  // The observatory's occupancy view (/statusz, PoolProfile artifact) wants
  // worker timelines for the pool every job fans out on; the cost is two
  // clock reads per pool task, negligible at exploration-task granularity.
  runtime::ThreadPool::default_pool().set_profiling(true);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_.store(true, std::memory_order_release);
  return port_;
}

std::uint64_t Server::uptime_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint64_t Server::register_inflight(const std::string& id, int priority) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  const std::uint64_t key = next_inflight_key_++;
  InflightJob& job = inflight_[key];
  job.id = id;
  job.priority = priority;
  job.accepted_us = uptime_us();
  inflight_gauge_->set(static_cast<double>(inflight_.size()));
  return key;
}

void Server::mark_inflight_exploring(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  it->second.stage = "exploring";
  it->second.started_us = uptime_us();
}

void Server::unregister_inflight(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_.erase(key);
  inflight_gauge_->set(static_cast<double>(inflight_.size()));
}

void Server::request_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  // Wake the accept loop and every idle connection handler.
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(drain_pipe_[1], &byte, 1);
  queue_.close();
}

int Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  // Connection handlers observe the drain pipe; they exit once their
  // in-flight response is written.
  while (true) {
    std::vector<std::thread> pending;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      pending.swap(connections_);
    }
    if (pending.empty()) break;
    for (std::thread& conn : pending)
      if (conn.joinable()) conn.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  eval_cache_.set_persist_sink(nullptr);
  if (cache_ != nullptr) cache_->flush();
  started_.store(false, std::memory_order_release);
  return 0;
}

void Server::accept_loop() {
  while (!draining()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {drain_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || draining()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    connections_metric_->inc();
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.emplace_back([this, conn] { handle_connection(conn); });
  }
  // Stop the kernel from accepting more connections while we drain.
  ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::worker_loop() {
  while (std::optional<QueuedJob> job = queue_.pop()) job->run();
}

void Server::handle_connection(int fd) {
  std::string pending;
  bool saw_data = false;
  char buf[1 << 14];
  while (true) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {drain_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      if (draining()) break;  // idle connection during drain: close it
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // peer closed (or error)
    pending.append(buf, static_cast<std::size_t>(n));
    saw_data = true;

    // Protocol sniff: an HTTP request line instead of a JSON object.
    if (pending.size() >= 4 && (pending.rfind("GET ", 0) == 0 ||
                                pending.rfind("HEAD", 0) == 0)) {
      handle_http(fd, pending);
      break;
    }

    std::size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = process_line(line);
      if (!send_all(fd, response + "\n")) {
        ::close(fd);
        return;
      }
    }
    if (draining() && pending.empty()) break;
  }
  (void)saw_data;
  ::close(fd);
}

void Server::handle_http(int fd, const std::string& buffered) {
  // Read until the end of the request head (we ignore the body; GETs have
  // none) or the peer stops talking.
  std::string head = buffered;
  char buf[4096];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos && head.size() < (1u << 16)) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
  }
  std::istringstream first_line(head.substr(0, head.find('\n')));
  std::string method, path;
  first_line >> method >> path;

  std::string response;
  if (path == "/statusz") {
    response = http_response(200, "OK", render_statusz(),
                             "application/json");
  } else if (path == "/metrics") {
    std::ostringstream body;
    trace::MetricsRegistry::global().write_prometheus(body);
    response = http_response(200, "OK", body.str());
  } else if (path == "/healthz") {
    response = draining() ? http_response(200, "OK", "draining\n")
                          : http_response(200, "OK", "ok\n");
  } else {
    response = http_response(404, "Not Found", "not found\n");
  }
  send_all(fd, response);
}

std::string Server::render_statusz() const {
  const auto count = [](const trace::Counter* c) {
    return static_cast<std::uint64_t>(c->value());
  };
  std::string out;
  trace::JsonWriter json(out);
  json.begin_object().key("uptime_us").integer(uptime_us())
      .key("draining").boolean(draining());
  json.newline().key("queue").begin_object()
      .key("depth").integer(queue_.depth())
      .key("capacity").integer(queue_.capacity())
      .key("workers").integer(worker_count_).end_object();

  json.newline().key("inflight").begin_array();
  {
    const std::uint64_t now_us = uptime_us();
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (const auto& [key, job] : inflight_) {
      // queue_wait: admission → worker pop for running jobs, admission →
      // now for jobs still queued.
      const std::uint64_t wait_end =
          job.started_us != 0 ? job.started_us : now_us;
      json.newline().begin_object().key("id").string(job.id)
          .key("priority").integer(job.priority).key("stage").string(job.stage)
          .key("age_us").integer(now_us - job.accepted_us)
          .key("queue_wait_us").integer(wait_end - job.accepted_us)
          .end_object();
    }
  }
  json.end_array();

  json.newline().key("jobs").begin_object()
      .key("accepted").integer(count(jobs_accepted_))
      .key("completed").integer(count(jobs_completed_))
      .key("failed").integer(count(jobs_failed_))
      .key("invalid").integer(count(jobs_invalid_))
      .key("rejected_queue_full").integer(count(jobs_rejected_full_))
      .key("rejected_draining").integer(count(jobs_rejected_draining_))
      .key("cache_hits").integer(count(result_hits_))
      .key("cache_misses").integer(count(result_misses_)).end_object();

  const KernelMemo::Stats memo = kernel_memo_.stats();
  json.newline().key("kernel_memo").begin_object()
      .key("hits").integer(memo.hits).key("misses").integer(memo.misses)
      .key("parses").integer(memo.parses).key("entries").integer(memo.entries)
      .key("bytes").integer(memo.bytes).end_object();

  write_histogram(json, "job_latency", *job_latency_);
  write_histogram(json, "queue_wait", *queue_wait_);

  const runtime::PersistStats persist =
      cache_ != nullptr ? cache_->stats() : runtime::PersistStats{};
  json.newline().key("cache").begin_object()
      .key("warm_start_schedule_entries").integer(load_report_.schedule_entries)
      .key("warm_start_blob_entries").integer(load_report_.blob_entries)
      .key("corrupt_skipped").integer(load_report_.corrupt_skipped)
      .key("version_mismatch")
      .integer(static_cast<int>(load_report_.version_mismatch))
      .key("appends").integer(persist.appends)
      .key("append_failures").integer(persist.append_failures)
      .key("blob_hits").integer(persist.blob_hits)
      .key("blob_misses").integer(persist.blob_misses)
      .key("schedule_entries")
      .integer(cache_ != nullptr ? cache_->schedule_entry_count() : 0)
      .key("blob_entries")
      .integer(cache_ != nullptr ? cache_->blob_entry_count() : 0)
      .key("log_size_bytes")
      .integer(cache_ != nullptr ? cache_->log_size_bytes() : 0)
      .end_object();

  // The shared exploration pool's occupancy + section profile, embedded as
  // the same object write_json produces for the PoolProfile artifact.
  std::ostringstream pool;
  runtime::collect_pool_profile(runtime::ThreadPool::default_pool())
      .write_json(pool);
  json.newline().key("pool").raw(pool.str()).end_object().newline();
  return out;
}

std::string Server::process_line(const std::string& line) {
  const std::uint64_t received_us = uptime_us();
  Expected<JobRequest> parsed = parse_job_request(line);
  if (!parsed) {
    jobs_invalid_->inc();
    return render_error_response("", parsed.error());
  }
  JobRequest request = std::move(parsed).value();

  if (draining()) {
    jobs_rejected_draining_->inc();
    return render_error_response(
        request.id, Error(ErrorCode::kServerShuttingDown,
                          "server is draining; resubmit elsewhere"));
  }

  // Admit every kernel on the connection thread: rejections are cheap and
  // must not occupy an exploration worker.
  JobTimings timings;
  Expected<std::vector<KernelMemo::Admission>> admitted =
      admit_kernels(request);
  if (!admitted) {
    jobs_invalid_->inc();
    return render_error_response(request.id, admitted.error());
  }
  timings.validate_us = uptime_us() - received_us;

  const std::uint64_t cache_start_us = uptime_us();
  runtime::Key128 signature;
  if (request.is_portfolio()) {
    std::vector<runtime::Key128> digests;
    digests.reserve(admitted->size());
    for (const KernelMemo::Admission& kernel : *admitted)
      digests.push_back(kernel.digest);
    signature = portfolio_signature(digests, request);
  } else {
    signature = job_signature(admitted->front().digest, request);
  }
  std::optional<std::string> cached = cache_->lookup_blob(signature);
  timings.cache_us = uptime_us() - cache_start_us;
  if (cached) {
    result_hits_->inc();
    timings.total_us = uptime_us() - received_us;
    job_latency_->observe(static_cast<double>(timings.total_us) * 1e-6);
    return render_response(request.id, /*cache_hit=*/true, timings, *cached);
  }
  result_misses_->inc();

  // Miss: each kernel's graph — kept from admission, or parsed now when the
  // memo answered its admission.
  std::vector<dfg::Graph> graphs;
  graphs.reserve(admitted->size());
  for (std::size_t k = 0; k < admitted->size(); ++k) {
    Expected<dfg::Graph> graph =
        kernel_memo_.graph(kernel_text(request, k), (*admitted)[k]);
    if (!graph) {
      jobs_invalid_->inc();
      return render_error_response(request.id, graph.error());
    }
    graphs.push_back(std::move(*graph));
  }
  return run_miss(request, signature, std::move(graphs), timings,
                  received_us);
}

Expected<std::vector<KernelMemo::Admission>> Server::admit_kernels(
    const JobRequest& request) {
  const std::size_t count =
      request.is_portfolio() ? request.programs.size() : 1;
  std::vector<KernelMemo::Admission> admitted;
  admitted.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    Expected<KernelMemo::Admission> kernel =
        kernel_memo_.admit(kernel_text(request, k));
    (kernel && !kernel->graph ? kernel_memo_hits_ : kernel_memo_misses_)
        ->inc();
    if (!kernel) return kernel.error();
    admitted.push_back(std::move(*kernel));
  }
  return admitted;
}

std::string Server::run_miss(const JobRequest& request,
                             const runtime::Key128& signature,
                             std::vector<dfg::Graph> graphs,
                             JobTimings timings, std::uint64_t received_us) {
  // What the worker runs: the flow over the request's kernels, rendered to
  // the fragment the result cache stores.  Evaluations memoize through this
  // server's warm-started cache — and via its persist sink, the disk log.
  flow::FlowConfig config = flow_config_for(request);
  config.params.eval_cache = &eval_cache_;
  std::string root_span_name;
  std::function<Expected<std::string>()> compute;
  if (request.is_portfolio()) {
    std::vector<flow::PortfolioEntry> entries(graphs.size());
    for (std::size_t p = 0; p < graphs.size(); ++p) {
      entries[p].program.name = request.programs[p].name;
      entries[p].program.blocks.push_back(
          flow::ProfiledBlock{"kernel", std::move(graphs[p]), 1});
      entries[p].weight = request.programs[p].weight;
    }
    root_span_name = "job:portfolio";
    compute = [entries = std::move(entries),
               config]() -> Expected<std::string> {
      flow::PortfolioConfig portfolio;
      portfolio.base = config;
      Expected<flow::PortfolioResult> result =
          flow::run_portfolio_flow_checked(
              entries, hw::HwLibrary::paper_default(), portfolio);
      if (!result) return result.error();
      return render_portfolio_fragment(*result);
    };
  } else {
    flow::ProfiledProgram program;
    program.name = request.id.empty() ? "job" : request.id;
    program.blocks.push_back(
        flow::ProfiledBlock{"kernel", std::move(graphs.front()), 1});
    root_span_name = "job:" + program.name;
    compute = [program = std::move(program),
               config]() -> Expected<std::string> {
      Expected<flow::FlowResult> result = flow::run_design_flow_checked(
          program, hw::HwLibrary::paper_default(), config);
      if (!result) return result.error();
      return render_result_fragment(*result);
    };
  }

  // Trace identity: one trace id per job, with a root span covering
  // admission → completion.  Everything recorded while the worker runs the
  // flow (stage spans, fanned-out pool tasks) nests under this root via the
  // ContextScope the worker installs.
  trace::Tracer& tracer = trace::Tracer::global();
  const bool traced = tracer.enabled();
  const std::uint64_t trace_id = traced ? trace::mint_trace_id() : 0;
  const std::uint64_t root_span = traced ? trace::mint_span_id() : 0;
  const std::uint64_t root_ts_us = traced ? tracer.now_us() : 0;

  const std::uint64_t inflight_key =
      register_inflight(request.id, request.priority);
  const std::uint64_t enqueued_us = uptime_us();

  auto promise = std::make_shared<std::promise<Expected<std::string>>>();
  std::future<Expected<std::string>> future = promise->get_future();
  runtime::PersistentEvalCache* cache = cache_.get();
  // Worker-side timing slots, written before the promise is fulfilled (the
  // future.get() below synchronizes the read).
  auto worker_times = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
  QueuedJob job;
  job.priority = request.priority;
  job.run = [this, promise, cache, signature,
             root_span_name = std::move(root_span_name),
             compute = std::move(compute), inflight_key, trace_id, root_span,
             root_ts_us, enqueued_us, worker_times]() {
    const std::uint64_t popped_us = uptime_us();
    worker_times->first = popped_us - enqueued_us;  // queue wait
    queue_wait_->observe(static_cast<double>(worker_times->first) * 1e-6);
    mark_inflight_exploring(inflight_key);
    trace::Tracer& tracer = trace::Tracer::global();
    if (trace_id != 0) {
      // The queue wait as its own span under the job root, so queue-time
      // percentiles fall out of the trace alone.
      tracer.record_span("job.queue_wait", root_ts_us,
                         tracer.now_us() - root_ts_us, trace_id,
                         trace::mint_span_id(), root_span);
    }
    {
      const trace::ContextScope scope(
          trace::TraceContext{trace_id, root_span});
      Expected<std::string> fragment = compute();
      worker_times->second = uptime_us() - popped_us;  // explore
      if (fragment) cache->put_blob(signature, *fragment);
      promise->set_value(std::move(fragment));
    }
    if (trace_id != 0) {
      tracer.record_span(root_span_name, root_ts_us,
                         tracer.now_us() - root_ts_us, trace_id, root_span,
                         /*parent_id=*/0);
    }
  };

  switch (queue_.push(std::move(job))) {
    case JobQueue::PushResult::kAccepted: break;
    case JobQueue::PushResult::kFull:
      unregister_inflight(inflight_key);
      jobs_rejected_full_->inc();
      return render_error_response(
          request.id,
          Error(ErrorCode::kServerQueueFull,
                "admission queue is full (" +
                    std::to_string(queue_.capacity()) + " pending)"));
    case JobQueue::PushResult::kClosed:
      unregister_inflight(inflight_key);
      jobs_rejected_draining_->inc();
      return render_error_response(
          request.id, Error(ErrorCode::kServerShuttingDown,
                            "server is draining; resubmit elsewhere"));
  }
  jobs_accepted_->inc();

  Expected<std::string> outcome = future.get();
  unregister_inflight(inflight_key);
  timings.queue_wait_us = worker_times->first;
  timings.explore_us = worker_times->second;
  timings.total_us = uptime_us() - received_us;
  job_latency_->observe(static_cast<double>(timings.total_us) * 1e-6);
  if (!outcome) {
    jobs_failed_->inc();
    return render_error_response(request.id, outcome.error());
  }
  jobs_completed_->inc();
  return render_response(request.id, /*cache_hit=*/false, timings, *outcome);
}

}  // namespace isex::server
