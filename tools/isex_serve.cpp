// isex_serve — exploration-as-a-service daemon (docs/SERVER.md).
//
//   isex_serve [--port P] [--host H] [--cache-file F] [--queue N]
//              [--workers N] [--jobs N] [--trace-out F]
//              [--pool-profile-out F]
//
//   --port P        TCP port (default 7421; 0 binds an ephemeral port —
//                   the actual port is printed on the "listening on" line)
//   --host H        bind address (default 127.0.0.1)
//   --cache-file F  persistent evaluation/result log; warm-started at boot,
//                   appended while serving (default: no persistence)
//   --queue N       admission-queue bound; jobs beyond it are rejected with
//                   E0602 (default 64)
//   --workers N     concurrent exploration jobs (default min(4, jobs))
//   --jobs N        exploration thread-pool width (default: ISEX_JOBS env
//                   var, else hardware concurrency)
//   --trace-out F   enable the global tracer for the server's lifetime and
//                   write the Chrome trace (every span parented under its
//                   job's trace id) to F at drain
//   --pool-profile-out F  write the PoolProfile JSON artifact (worker
//                   occupancy, task histogram, per-section Amdahl numbers)
//                   to F at drain
//
// Protocol: newline-delimited JSON jobs plus HTTP GET /metrics, /healthz
// and /statusz on the same port.  SIGINT/SIGTERM drain gracefully: queued
// and in-flight jobs finish, new submissions get E0603, the cache log is
// flushed, observability artifacts are written, and the process exits 0.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <poll.h>

#include "runtime/pool_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "server/server.hpp"
#include "trace/trace.hpp"
#include "util/shutdown.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: isex_serve [--port P] [--host H] [--cache-file F]\n"
               "                  [--queue N] [--workers N] [--jobs N]\n"
               "                  [--trace-out F] [--pool-profile-out F]\n"
               "\n"
               "  --port 0 binds an ephemeral port (printed at startup)\n"
               "  --cache-file F  persist evaluations/results across runs\n"
               "  --trace-out F   Chrome trace of every job, written at drain\n"
               "  --pool-profile-out F  pool occupancy artifact at drain\n"
               "  SIGINT/SIGTERM drain gracefully and exit 0\n");
  std::exit(error != nullptr ? 2 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isex;

  server::ServerOptions options;
  options.port = 7421;
  int jobs = 0;
  std::string trace_path;
  std::string pool_profile_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--port") {
      const int port = std::atoi(next_value());
      if (port < 0 || port > 65535) usage("--port must be in [0, 65535]");
      options.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--host") {
      options.host = next_value();
    } else if (arg == "--cache-file") {
      options.cache_path = next_value();
    } else if (arg == "--queue") {
      const int queue = std::atoi(next_value());
      if (queue < 1) usage("--queue must be >= 1");
      options.queue_capacity = static_cast<std::size_t>(queue);
    } else if (arg == "--workers") {
      options.workers = std::atoi(next_value());
      if (options.workers < 1) usage("--workers must be >= 1");
    } else if (arg == "--jobs") {
      jobs = std::atoi(next_value());
      if (jobs < 1) usage("--jobs must be >= 1");
    } else if (arg == "--trace-out") {
      trace_path = next_value();
    } else if (arg == "--pool-profile-out") {
      pool_profile_path = next_value();
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (jobs > 0) runtime::ThreadPool::set_default_jobs(jobs);
  if (!trace_path.empty()) trace::Tracer::global().set_enabled(true);

  util::ShutdownRequest& shutdown = util::ShutdownRequest::instance();
  shutdown.install();

  server::Server server(options);
  const Expected<std::uint16_t> port = server.start();
  if (!port) {
    std::fprintf(stderr, "isex_serve: %s\n", port.error().to_string().c_str());
    return 1;
  }
  // Scrapeable startup line (tests and tools/isex_client.py parse it).
  std::printf("isex_serve: listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(*port));
  std::fflush(stdout);

  // Park until a signal, then drain.
  pollfd pfd{shutdown.wait_fd(), POLLIN, 0};
  while (!shutdown.requested()) {
    if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) break;
  }
  std::printf("isex_serve: signal %d, draining...\n",
              shutdown.signal_number());
  std::fflush(stdout);
  server.request_drain();
  const int rc = server.wait();
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (out) {
      trace::Tracer::global().write_chrome_trace(out);
      std::printf("isex_serve: wrote trace to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "isex_serve: cannot write --trace-out %s\n",
                   trace_path.c_str());
    }
  }
  if (!pool_profile_path.empty()) {
    std::ofstream out(pool_profile_path);
    if (out) {
      runtime::collect_pool_profile(runtime::ThreadPool::default_pool())
          .write_json(out);
      std::printf("isex_serve: wrote pool profile to %s\n",
                  pool_profile_path.c_str());
    } else {
      std::fprintf(stderr,
                   "isex_serve: cannot write --pool-profile-out %s\n",
                   pool_profile_path.c_str());
    }
  }
  std::printf("isex_serve: drained, exiting\n");
  return rc;
}
