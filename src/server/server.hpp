// isex_serve — exploration as a long-running service (docs/SERVER.md).
//
// One listening TCP socket serves two protocols, sniffed from the first
// bytes of each connection:
//
//   * newline-delimited JSON job traffic (protocol.hpp): each line is one
//     exploration request, answered in order on the same connection;
//   * plain HTTP `GET /metrics` (Prometheus snapshot of the process-wide
//     registry) and `GET /healthz`.
//
// Execution path: connection handlers parse a request and admit its
// kernels on the connection's own thread (cheap, and rejections never
// occupy a worker), look the canonical job signature up in the result
// cache, and only on a miss enqueue the exploration into the bounded
// priority JobQueue.  Admission goes through the server's KernelMemo
// (kernel_memo.hpp): a kernel text this server has already parsed and
// validated is signed from its remembered graph digest with no parse.  Worker
// threads pop jobs in priority order and run the existing design flow —
// run_design_flow_checked fans each job's (block × repeat) exploration over
// the shared isex_runtime thread pool, so one large job saturates the
// machine and many small jobs interleave.
//
// Caching: results are keyed on job_signature() — a pure function of the
// kernel graph and every result-affecting parameter — and stored through
// runtime::PersistentEvalCache, so a repeat submission is answered from
// memory (or, after a restart, from the warm-started disk log) with a
// bit-identical response and zero re-exploration.  The schedule-eval cache
// is persisted through the same log via EvalCache's persist sink.
//
// Shutdown: request_drain() (wired to SIGINT/SIGTERM by the binary) stops
// the accept loop, rejects new submissions with E0603, lets the queue drain
// and in-flight jobs finish, flushes the cache log, and wait() returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/job_queue.hpp"
#include "server/kernel_memo.hpp"
#include "server/protocol.hpp"
#include "runtime/persistent_cache.hpp"
#include "util/error.hpp"

namespace isex::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one from Server::port().
  std::uint16_t port = 0;
  /// Path of the persistent evaluation/result log; empty disables
  /// persistence (results are still cached in memory for the process life).
  std::string cache_path;
  /// Admission-queue bound; a push beyond it is rejected with E0602.
  std::size_t queue_capacity = 64;
  /// Job worker threads; <= 0 picks min(4, runtime::default_jobs()).
  int workers = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, loads the cache (warm start), and spawns the accept
  /// loop and workers.  Returns the bound port, or a structured error
  /// (kPersistIo for socket failures — the server could not open for
  /// business).
  Expected<std::uint16_t> start();

  std::uint16_t port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Begins the graceful drain described above.  Idempotent, callable from
  /// any thread (the signal watcher calls it).
  void request_drain();

  /// Blocks until the drain completes and every thread has been joined.
  /// Returns the process exit code (0 on a clean drain).
  int wait();

  /// Processes one job line and returns the response line (no newline).
  /// This is the whole protocol minus the socket: connection handlers call
  /// it per received line, and tests call it directly to drive admission
  /// control deterministically.
  std::string process_line(const std::string& line);

  /// The admission queue (tests use it to occupy the worker and observe
  /// depth; everything else should go through process_line).
  JobQueue& queue() { return queue_; }

  /// This server's kernel memo (tests read its stats; /statusz serves them
  /// as `kernel_memo`).
  const KernelMemo& kernel_memo() const { return kernel_memo_; }

  /// The /statusz body: a JSON snapshot of live server state — in-flight
  /// jobs with per-stage ages, queue depth, kernel-memo counts,
  /// latency/queue-wait histograms, persistent-cache hit/corruption stats,
  /// and per-worker pool occupancy.
  /// Exposed for tests; the HTTP handler serves it verbatim.
  std::string render_statusz() const;

 private:
  /// One admitted-but-unanswered job, keyed for /statusz.
  struct InflightJob {
    std::string id;
    int priority = 0;
    const char* stage = "queued";  ///< "queued" until a worker pops it
    std::uint64_t accepted_us = 0;
    std::uint64_t started_us = 0;  ///< 0 while still queued
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  void handle_http(int fd, const std::string& buffered);

  /// Admits every kernel of `request` (its `kernel`, or each portfolio
  /// program's) through kernel_memo_, in order; the first invalid kernel's
  /// error rejects the request.
  Expected<std::vector<KernelMemo::Admission>> admit_kernels(
      const JobRequest& request);

  /// The miss path of both job kinds: registers the job in flight, queues
  /// the flow over `graphs` (one per kernel of the request) for a worker
  /// under a per-job trace root span, persists the rendered result fragment
  /// under `signature`, waits for it and renders the response.  `timings`
  /// carries what the connection thread measured so far.
  std::string run_miss(const JobRequest& request,
                       const runtime::Key128& signature,
                       std::vector<dfg::Graph> graphs, JobTimings timings,
                       std::uint64_t received_us);

  /// Microseconds since construction (the clock /statusz ages and the
  /// per-job timings are measured on; monotonic, tracer-independent).
  std::uint64_t uptime_us() const;
  std::uint64_t register_inflight(const std::string& id, int priority);
  void mark_inflight_exploring(std::uint64_t key);
  void unregister_inflight(std::uint64_t key);

  ServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int drain_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  JobQueue queue_;
  std::unique_ptr<runtime::PersistentEvalCache> cache_;
  /// Warm-start outcome kept for /statusz (corrupt_skipped and friends).
  runtime::PersistLoadReport load_report_;
  int worker_count_ = 0;
  KernelMemo kernel_memo_;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex inflight_mutex_;
  std::uint64_t next_inflight_key_ = 1;
  std::map<std::uint64_t, InflightJob> inflight_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conn_mutex_;
  std::vector<std::thread> connections_;

  // Server metrics (process-wide registry; resolved once).
  trace::Counter* connections_metric_;
  trace::Counter* jobs_accepted_;
  trace::Counter* jobs_rejected_full_;
  trace::Counter* jobs_rejected_draining_;
  trace::Counter* jobs_invalid_;
  trace::Counter* jobs_completed_;
  trace::Counter* jobs_failed_;
  trace::Counter* result_hits_;
  trace::Counter* result_misses_;
  trace::Counter* kernel_memo_hits_;
  trace::Counter* kernel_memo_misses_;
  trace::Gauge* warm_start_entries_;
  trace::Gauge* inflight_gauge_;
  trace::Gauge* queue_capacity_gauge_;
  trace::Histogram* job_latency_;  ///< seconds, submission → response
  trace::Histogram* queue_wait_;   ///< seconds, admission → worker pop
};

}  // namespace isex::server
