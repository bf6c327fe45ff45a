#include "server/kernel_memo.hpp"

#include <utility>

#include "dfg/validate.hpp"
#include "isa/tac_parser.hpp"

namespace isex::server {

static_assert(KernelMemo::kMaxKernelBytes <= KernelMemo::kMaxBytes,
              "a cleared memo must always fit one storable kernel");

Expected<KernelMemo::Admission> KernelMemo::admit(const std::string& text) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = digests_.find(text);
    if (it != digests_.end()) {
      ++hits_;
      return Admission{it->second, std::nullopt};
    }
  }
  ++misses_;
  Expected<dfg::Graph> graph = parse(text);
  if (!graph) return graph.error();
  Admission admission{runtime::graph_digest(*graph), std::move(*graph)};
  insert(text, admission.digest);
  return admission;
}

Expected<dfg::Graph> KernelMemo::graph(const std::string& text,
                                       Admission& admission) {
  if (admission.graph) return std::move(*admission.graph);
  return parse(text);
}

KernelMemo::Stats KernelMemo::stats() const {
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.parses = parses_;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.entries = digests_.size();
  stats.bytes = bytes_;
  return stats;
}

Expected<dfg::Graph> KernelMemo::parse(const std::string& text) {
  ++parses_;
  Expected<isa::ParsedBlock> block = isa::parse_tac_checked(text);
  if (!block) return block.error();
  const ValidationReport report = dfg::validate(block->graph);
  if (!report.ok()) return report.first_error();
  return std::move(block->graph);
}

void KernelMemo::insert(const std::string& text,
                        const runtime::Key128& digest) {
  if (text.size() > kMaxKernelBytes) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (digests_.count(text) != 0) return;  // another thread got here first
  if (digests_.size() + 1 > kMaxEntries ||
      bytes_ + text.size() > kMaxBytes) {
    digests_.clear();
    bytes_ = 0;
  }
  digests_.emplace(text, digest);
  bytes_ += text.size();
}

}  // namespace isex::server
