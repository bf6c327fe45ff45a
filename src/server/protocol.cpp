#include "server/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "trace/trace.hpp"  // json_escape

namespace isex::server {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader.  Requests are single-line, flat objects; this parser
// accepts general JSON anyway (nested values become structured JsonValues)
// so malformed nesting yields a clean E0601 instead of a surprise.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Set when the number literal had no '.', 'e', or sign-overflow; carries
  /// full 64-bit precision (doubles cannot hold every seed).
  bool is_integer = false;
  std::uint64_t integer = 0;
  bool negative = false;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Expected<JsonValue> parse() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) return make_error();
    skip_ws();
    if (pos_ != text_.size())
      return Error(ErrorCode::kServerProtocol,
                   "trailing characters after JSON value at offset " +
                       std::to_string(pos_));
    return value;
  }

 private:
  Error make_error() {
    return Error(ErrorCode::kServerProtocol,
                 error_.empty() ? "malformed JSON at offset " +
                                      std::to_string(pos_)
                                : error_);
  }

  void fail(std::string message) {
    if (error_.empty())
      error_ = std::move(message) + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        if (literal("true")) return true;
        fail("bad literal");
        return false;
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        if (literal("false")) return true;
        fail("bad literal");
        return false;
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        if (literal("null")) return true;
        fail("bad literal");
        return false;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        fail("expected object key");
        return false;
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':'");
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      fail("expected ',' or '}'");
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      fail("expected ',' or ']'");
      return false;
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return false;
              }
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed for TAC text; a lone surrogate encodes as-is).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            fail("unknown escape");
            return false;
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      out.negative = true;
      ++pos_;
    }
    bool saw_digit = false, integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        saw_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!saw_digit) {
      fail("malformed number");
      return false;
    }
    const std::string token = text_.substr(start, pos_ - start);
    out.number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      out.is_integer = true;
      out.integer = std::strtoull(
          token.c_str() + (out.negative ? 1 : 0), nullptr, 10);
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

Error field_error(const std::string& field, const char* expected) {
  return Error(ErrorCode::kServerProtocol,
               "field '" + field + "' must be " + expected);
}

bool read_int(const JsonValue& v, int* out) {
  if (v.kind != JsonValue::Kind::kNumber || !v.is_integer) return false;
  if (v.integer > 0x7fffffffULL) return false;
  *out = v.negative ? -static_cast<int>(v.integer)
                    : static_cast<int>(v.integer);
  return true;
}

}  // namespace

Expected<JobRequest> parse_job_request(const std::string& line) {
  Expected<JsonValue> parsed = JsonParser(line).parse();
  if (!parsed) return parsed.error();
  const JsonValue& root = *parsed;
  if (root.kind != JsonValue::Kind::kObject)
    return Error(ErrorCode::kServerProtocol, "request must be a JSON object");

  JobRequest request;
  bool have_kernel = false;
  for (const auto& [key, value] : root.object) {
    if (key == "id") {
      if (value.kind != JsonValue::Kind::kString)
        return field_error(key, "a string");
      request.id = value.string;
    } else if (key == "kernel") {
      if (value.kind != JsonValue::Kind::kString)
        return field_error(key, "a string (TAC source)");
      request.kernel = value.string;
      have_kernel = true;
    } else if (key == "priority") {
      if (!read_int(value, &request.priority))
        return field_error(key, "an integer");
    } else if (key == "issue") {
      if (!read_int(value, &request.issue) || request.issue < 1)
        return field_error(key, "an integer >= 1");
    } else if (key == "read_ports") {
      if (!read_int(value, &request.read_ports) || request.read_ports < 1)
        return field_error(key, "an integer >= 1");
    } else if (key == "write_ports") {
      if (!read_int(value, &request.write_ports) || request.write_ports < 1)
        return field_error(key, "an integer >= 1");
    } else if (key == "repeats") {
      if (!read_int(value, &request.repeats) || request.repeats < 1)
        return field_error(key, "an integer >= 1");
    } else if (key == "colonies") {
      if (!read_int(value, &request.colonies) || request.colonies < 1)
        return field_error(key, "an integer >= 1");
    } else if (key == "merge_interval") {
      if (!read_int(value, &request.merge_interval) ||
          request.merge_interval < 1)
        return field_error(key, "an integer >= 1");
    } else if (key == "seed") {
      if (value.kind != JsonValue::Kind::kNumber || !value.is_integer ||
          value.negative)
        return field_error(key, "a non-negative integer");
      request.seed = value.integer;
    } else if (key == "area_budget") {
      if (value.kind != JsonValue::Kind::kNumber || value.number < 0.0)
        return field_error(key, "a non-negative number");
      request.area_budget = value.number;
      request.has_area_budget = true;
    } else if (key == "max_ises") {
      if (!read_int(value, &request.max_ises) || request.max_ises < 0)
        return field_error(key, "an integer >= 0");
    } else if (key == "baseline") {
      if (value.kind != JsonValue::Kind::kBool)
        return field_error(key, "a boolean");
      request.baseline = value.boolean;
    } else if (key == "cache_config") {
      if (value.kind != JsonValue::Kind::kString)
        return field_error(key, "a string (cache-config spec)");
      // Parse + validate here so a bad geometry is rejected at admission
      // with its own E07xx code instead of failing mid-flow.
      Expected<mem::CacheConfig> parsed_cache =
          mem::parse_cache_config(value.string);
      if (!parsed_cache) return parsed_cache.error();
      request.cache_config = value.string;
      request.cache = *parsed_cache;
      request.has_cache = true;
    } else if (key == "programs") {
      if (value.kind != JsonValue::Kind::kArray || value.array.empty())
        return field_error(key, "a non-empty array of program objects");
      for (const JsonValue& item : value.array) {
        if (item.kind != JsonValue::Kind::kObject)
          return field_error(key, "a non-empty array of program objects");
        PortfolioProgramSpec spec;
        bool have_program_kernel = false;
        for (const auto& [pkey, pvalue] : item.object) {
          if (pkey == "name") {
            if (pvalue.kind != JsonValue::Kind::kString)
              return field_error("programs[].name", "a string");
            spec.name = pvalue.string;
          } else if (pkey == "kernel") {
            if (pvalue.kind != JsonValue::Kind::kString)
              return field_error("programs[].kernel", "a string (TAC source)");
            spec.kernel = pvalue.string;
            have_program_kernel = true;
          } else if (pkey == "weight") {
            if (pvalue.kind != JsonValue::Kind::kNumber ||
                !std::isfinite(pvalue.number) || !(pvalue.number > 0.0))
              return field_error("programs[].weight",
                                 "a finite number > 0");
            spec.weight = pvalue.number;
          } else {
            return Error(ErrorCode::kServerProtocol,
                         "unknown request field 'programs[]." + pkey + "'");
          }
        }
        if (!have_program_kernel || spec.kernel.empty())
          return Error(ErrorCode::kServerProtocol,
                       "portfolio program " +
                           std::to_string(request.programs.size()) +
                           " is missing the 'kernel' field");
        if (spec.name.empty())
          spec.name = "p" + std::to_string(request.programs.size());
        request.programs.push_back(std::move(spec));
      }
    } else {
      return Error(ErrorCode::kServerProtocol,
                   "unknown request field '" + key + "'");
    }
  }
  if (request.is_portfolio()) {
    if (have_kernel)
      return Error(ErrorCode::kServerProtocol,
                   "'kernel' and 'programs' are mutually exclusive");
  } else if (!have_kernel || request.kernel.empty()) {
    return Error(ErrorCode::kServerProtocol,
                 "request is missing the 'kernel' field");
  }
  return request;
}

flow::FlowConfig flow_config_for(const JobRequest& request) {
  flow::FlowConfig config;
  config.machine = sched::MachineConfig::make(
      request.issue, {request.read_ports, request.write_ports});
  config.repeats = request.repeats;
  config.seed = request.seed;
  config.params.colonies = request.colonies;
  config.params.merge_interval = request.merge_interval;
  config.constraints.max_ises = request.max_ises;
  if (request.has_area_budget)
    config.constraints.area_budget = request.area_budget;
  config.algorithm = request.baseline ? flow::Algorithm::kSingleIssue
                                      : flow::Algorithm::kMultiIssue;
  if (request.has_cache) config.cache = request.cache;
  return config;
}

flow::PortfolioConfig portfolio_config_for(const JobRequest& request) {
  flow::PortfolioConfig config;
  config.base = flow_config_for(request);
  return config;
}

runtime::Key128 job_signature(const dfg::Graph& graph,
                              const JobRequest& request) {
  return job_signature(runtime::graph_digest(graph), request);
}

runtime::Key128 job_signature(const runtime::Key128& graph_digest,
                              const JobRequest& request) {
  // Everything run_design_flow reads must be mixed in; bump when the flow's
  // semantics change so stale persisted results cannot be replayed.
  // v2: multi-colony search (colonies / merge_interval join the signature).
  // v3: memory-hierarchy model — the cache config is mixed in *only when
  // present* (tagged, at the end of the mix), so every cache-less request
  // keeps its v2 key byte-for-byte and the persisted cache stays warm
  // across the upgrade; the version constant therefore stays 2
  // (docs/SERVER.md, "Signature compatibility").
  constexpr std::uint64_t kFlowSemanticsVersion = 2;
  const flow::FlowConfig config = flow_config_for(request);
  const auto mix_request = [&](runtime::Hash64& h, std::uint64_t half,
                               std::uint64_t machine_seed) {
    h.mix(kFlowSemanticsVersion);
    h.mix(half);
    h.mix(runtime::fingerprint(config.machine, machine_seed));
    h.mix(static_cast<std::uint64_t>(request.repeats));
    h.mix(request.seed);
    // merge_interval only matters with >= 2 colonies; normalizing it to 0
    // for single-colony requests keeps every inert variant on one cache key
    // while colonies=1 vs colonies=K always get distinct signatures.
    h.mix(static_cast<std::uint64_t>(request.colonies));
    h.mix(request.colonies > 1
              ? static_cast<std::uint64_t>(request.merge_interval)
              : 0);
    h.mix(static_cast<std::uint64_t>(request.max_ises));
    h.mix(request.has_area_budget ? 1 : 0);
    h.mix_double(request.has_area_budget ? request.area_budget : 0.0);
    h.mix(request.baseline ? 1 : 0);
    if (request.has_cache) {
      h.mix(0x6361636865636667ULL);  // "cachecfg" tag; cannot alias a v2 mix
      h.mix(mem::fingerprint(request.cache, machine_seed));
    }
  };
  runtime::Key128 key;
  runtime::Hash64 lo(0xd1b54a32d192ed03ULL);  // domain: job signatures
  mix_request(lo, graph_digest.lo, 0xaef17502108ef2d9ULL);
  key.lo = lo.value();
  runtime::Hash64 hi(0x8cb92ba72f3d8dd7ULL);
  mix_request(hi, graph_digest.hi, 0x94d049bb133111ebULL);
  key.hi = hi.value();
  return key;
}

runtime::Key128 portfolio_signature(
    const std::vector<const dfg::Graph*>& graphs, const JobRequest& request) {
  std::vector<runtime::Key128> digests;
  digests.reserve(graphs.size());
  for (const dfg::Graph* graph : graphs)
    digests.push_back(runtime::graph_digest(*graph));
  return portfolio_signature(digests, request);
}

runtime::Key128 portfolio_signature(
    const std::vector<runtime::Key128>& graph_digests,
    const JobRequest& request) {
  // v1 of the portfolio signature scheme.  Each row contributes its
  // program's job_signature (graph × shared parameters, budget included)
  // paired with its weight; rows are mixed in sorted order so manifest row
  // order — which never changes any per-program result — cannot fork the
  // cache key.
  constexpr std::uint64_t kPortfolioVersion = 1;
  struct Row {
    runtime::Key128 sig;
    double weight;
  };
  std::vector<Row> rows;
  rows.reserve(graph_digests.size());
  for (std::size_t p = 0; p < graph_digests.size(); ++p)
    rows.push_back(Row{job_signature(graph_digests[p], request),
                       request.programs[p].weight});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.sig.lo != b.sig.lo) return a.sig.lo < b.sig.lo;
    if (a.sig.hi != b.sig.hi) return a.sig.hi < b.sig.hi;
    return a.weight < b.weight;
  });
  const auto mix_rows = [&](runtime::Hash64& h, bool low_half) {
    h.mix(kPortfolioVersion);
    h.mix(rows.size());
    for (const Row& row : rows) {
      h.mix(low_half ? row.sig.lo : row.sig.hi);
      h.mix_double(row.weight);
    }
  };
  runtime::Key128 key;
  runtime::Hash64 lo(0xc2b2ae3d27d4eb4fULL);  // domain: portfolio signatures
  mix_rows(lo, /*low_half=*/true);
  key.lo = lo.value();
  runtime::Hash64 hi(0x165667b19e3779f9ULL);
  mix_rows(hi, /*low_half=*/false);
  key.hi = hi.value();
  return key;
}

std::uint64_t flow_result_digest(const flow::FlowResult& result) {
  runtime::Hash64 h(0x9e3779b97f4a7c15ULL);
  h.mix(result.base_time());
  h.mix(result.final_time());
  h.mix(result.hot_blocks.size());
  for (const std::size_t b : result.hot_blocks) h.mix(b);
  h.mix(static_cast<std::uint64_t>(result.selection.num_types));
  h.mix_double(result.selection.total_area);
  h.mix(result.selection.selected.size());
  for (const flow::SelectedIse& sel : result.selection.selected) {
    h.mix(sel.entry.block_index);
    h.mix(sel.entry.position);
    h.mix(static_cast<std::uint64_t>(sel.type_id));
    h.mix(sel.hardware_shared ? 1 : 0);
    h.mix(sel.entry.benefit);
    const core::ExploredIse& ise = sel.entry.ise;
    h.mix(static_cast<std::uint64_t>(ise.gain_cycles));
    h.mix(static_cast<std::uint64_t>(ise.in_count));
    h.mix(static_cast<std::uint64_t>(ise.out_count));
    h.mix(static_cast<std::uint64_t>(ise.eval.latency_cycles));
    h.mix_double(ise.eval.area);
    for (const std::uint64_t w : ise.original_nodes.words()) h.mix(w);
  }
  h.mix(result.replacement.outcomes.size());
  for (const flow::BlockOutcome& block : result.replacement.outcomes) {
    for (const char c : block.name)
      h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    h.mix(block.exec_count);
    h.mix(static_cast<std::uint64_t>(block.base_cycles));
    h.mix(static_cast<std::uint64_t>(block.final_cycles));
    h.mix(static_cast<std::uint64_t>(block.ise_uses));
  }
  // Mixed only for cache-modeled runs so cache-less digests stay stable.
  if (result.cache_modeled) {
    h.mix(0x6361636865636667ULL);
    h.mix(result.cache_stats.accesses);
    h.mix(result.cache_stats.l1_hits);
    h.mix(result.cache_stats.l2_hits);
    h.mix(result.cache_stats.mem_accesses);
  }
  return h.value();
}

std::string render_result_fragment(const flow::FlowResult& result) {
  char buf[64];
  std::string out;
  const auto num = [&](const char* fmt, auto value) {
    std::snprintf(buf, sizeof buf, fmt, value);
    out += buf;
  };
  out += "\"base_time\":";
  num("%llu", static_cast<unsigned long long>(result.base_time()));
  out += ",\"final_time\":";
  num("%llu", static_cast<unsigned long long>(result.final_time()));
  out += ",\"reduction\":";
  num("%.6f", result.reduction());
  out += ",\"num_ises\":";
  num("%zu", result.selection.selected.size());
  out += ",\"num_types\":";
  num("%d", result.num_ise_types());
  out += ",\"total_area\":";
  num("%.3f", result.total_area());
  out += ",\"result_digest\":\"";
  num("0x%016llx",
      static_cast<unsigned long long>(flow_result_digest(result)));
  out += "\",\"ises\":[";
  bool first = true;
  for (const flow::SelectedIse& sel : result.selection.selected) {
    if (!first) out += ',';
    first = false;
    const core::ExploredIse& ise = sel.entry.ise;
    out += "{\"block\":";
    num("%zu", sel.entry.block_index);
    out += ",\"type\":";
    num("%d", sel.type_id);
    out += ",\"shared\":";
    out += sel.hardware_shared ? "true" : "false";
    out += ",\"ops\":";
    num("%zu", ise.original_nodes.count());
    out += ",\"latency\":";
    num("%d", ise.eval.latency_cycles);
    out += ",\"area\":";
    num("%.3f", ise.eval.area);
    out += ",\"in\":";
    num("%d", ise.in_count);
    out += ",\"out\":";
    num("%d", ise.out_count);
    out += ",\"gain\":";
    num("%d", ise.gain_cycles);
    out += ",\"members\":\"";
    std::string members;
    for (const std::string& label : ise.member_labels) {
      if (!members.empty()) members += ' ';
      members += label;
    }
    out += trace::json_escape(members);
    out += "\"}";
  }
  out += ']';
  // Per-flow hit/miss telemetry; rendered only for cache-modeled runs so
  // cache-less fragments stay byte-identical across the upgrade.
  if (result.cache_modeled) {
    out += ",\"cache\":{\"accesses\":";
    num("%llu", static_cast<unsigned long long>(result.cache_stats.accesses));
    out += ",\"l1_hits\":";
    num("%llu", static_cast<unsigned long long>(result.cache_stats.l1_hits));
    out += ",\"l2_hits\":";
    num("%llu", static_cast<unsigned long long>(result.cache_stats.l2_hits));
    out += ",\"mem_accesses\":";
    num("%llu",
        static_cast<unsigned long long>(result.cache_stats.mem_accesses));
    out += ",\"l1_hit_rate\":";
    num("%.6f", result.cache_stats.l1_hit_rate());
    out += '}';
  }
  return out;
}

std::uint64_t portfolio_result_digest(const flow::PortfolioResult& result) {
  runtime::Hash64 h(0x27220a957fb9d1f1ULL);  // domain: portfolio digests
  h.mix(result.programs.size());
  for (const flow::PortfolioProgramResult& prog : result.programs) {
    for (const char c : prog.name)
      h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    h.mix_double(prog.weight);
    h.mix(prog.base_time());
    h.mix(prog.final_time());
    h.mix(prog.hot_blocks.size());
    for (const std::size_t b : prog.hot_blocks) h.mix(b);
    h.mix(prog.selection.selected.size());
    h.mix(static_cast<std::uint64_t>(prog.selection.num_types));
    h.mix_double(prog.selection.total_area);
  }
  h.mix(result.selection.selected.size());
  for (const flow::PortfolioSelectedIse& sel : result.selection.selected) {
    h.mix(sel.program_index);
    h.mix(sel.entry.block_index);
    h.mix(sel.entry.position);
    h.mix(static_cast<std::uint64_t>(sel.type_id));
    h.mix(sel.hardware_shared ? 1 : 0);
    h.mix(sel.entry.benefit);
    h.mix_double(sel.weighted_benefit);
    h.mix_double(sel.entry.ise.eval.area);
  }
  h.mix_double(result.selection.total_area);
  h.mix(static_cast<std::uint64_t>(result.selection.num_types));
  h.mix(result.total_jobs);
  h.mix(result.deduped_jobs);
  if (result.cache_modeled) {
    h.mix(0x6361636865636667ULL);
    h.mix(result.cache_stats.accesses);
    h.mix(result.cache_stats.l1_hits);
    h.mix(result.cache_stats.l2_hits);
    h.mix(result.cache_stats.mem_accesses);
  }
  return h.value();
}

std::string render_portfolio_fragment(const flow::PortfolioResult& result) {
  char buf[64];
  std::string out;
  const auto num = [&](const char* fmt, auto value) {
    std::snprintf(buf, sizeof buf, fmt, value);
    out += buf;
  };
  out += "\"portfolio\":true,\"num_programs\":";
  num("%zu", result.programs.size());
  out += ",\"total_weighted_benefit\":";
  num("%.6f", result.total_weighted_benefit());
  out += ",\"total_area\":";
  num("%.3f", result.total_area());
  out += ",\"num_types\":";
  num("%d", result.num_ise_types());
  out += ",\"num_ises\":";
  num("%zu", result.selection.selected.size());
  out += ",\"total_jobs\":";
  num("%llu", static_cast<unsigned long long>(result.total_jobs));
  out += ",\"deduped_jobs\":";
  num("%llu", static_cast<unsigned long long>(result.deduped_jobs));
  out += ",\"eval_hits\":";
  num("%llu",
      static_cast<unsigned long long>(result.eval_cache_stats.hits));
  out += ",\"eval_misses\":";
  num("%llu",
      static_cast<unsigned long long>(result.eval_cache_stats.misses));
  out += ",\"dedup_hit_rate\":";
  num("%.6f", result.eval_cache_stats.hit_rate());
  out += ",\"isomorphic_hot_blocks\":";
  num("%llu",
      static_cast<unsigned long long>(result.isomorphic_hot_blocks));
  out += ",\"isomorphic_candidates\":";
  num("%llu",
      static_cast<unsigned long long>(result.isomorphic_candidates));
  out += ",\"result_digest\":\"";
  num("0x%016llx",
      static_cast<unsigned long long>(portfolio_result_digest(result)));
  out += "\",\"programs\":[";
  bool first = true;
  for (const flow::PortfolioProgramResult& prog : result.programs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + trace::json_escape(prog.name) + "\",\"weight\":";
    num("%.6f", prog.weight);
    out += ",\"base_time\":";
    num("%llu", static_cast<unsigned long long>(prog.base_time()));
    out += ",\"final_time\":";
    num("%llu", static_cast<unsigned long long>(prog.final_time()));
    out += ",\"reduction\":";
    num("%.6f", prog.reduction());
    out += ",\"num_ises\":";
    num("%zu", prog.selection.selected.size());
    out += ",\"cycles_saved\":";
    num("%llu", static_cast<unsigned long long>(prog.cycles_saved()));
    out += ",\"weighted_benefit\":";
    num("%.6f", prog.weighted_benefit());
    out += '}';
  }
  out += "],\"ises\":[";
  first = true;
  for (const flow::PortfolioSelectedIse& sel : result.selection.selected) {
    if (!first) out += ',';
    first = false;
    out += "{\"program\":";
    num("%zu", sel.program_index);
    out += ",\"block\":";
    num("%zu", sel.entry.block_index);
    out += ",\"type\":";
    num("%d", sel.type_id);
    out += ",\"shared\":";
    out += sel.hardware_shared ? "true" : "false";
    out += ",\"area\":";
    num("%.3f", sel.entry.ise.eval.area);
    out += ",\"gain\":";
    num("%d", sel.entry.ise.gain_cycles);
    out += ",\"weighted_benefit\":";
    num("%.6f", sel.weighted_benefit);
    out += '}';
  }
  out += ']';
  if (result.cache_modeled) {
    out += ",\"cache\":{\"accesses\":";
    num("%llu", static_cast<unsigned long long>(result.cache_stats.accesses));
    out += ",\"l1_hits\":";
    num("%llu", static_cast<unsigned long long>(result.cache_stats.l1_hits));
    out += ",\"l2_hits\":";
    num("%llu", static_cast<unsigned long long>(result.cache_stats.l2_hits));
    out += ",\"mem_accesses\":";
    num("%llu",
        static_cast<unsigned long long>(result.cache_stats.mem_accesses));
    out += ",\"l1_hit_rate\":";
    num("%.6f", result.cache_stats.l1_hit_rate());
    out += '}';
  }
  return out;
}

std::string render_timings(const JobTimings& timings) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"timings\":{\"queue_wait_us\":%llu,\"validate_us\":%llu,"
                "\"explore_us\":%llu,\"cache_us\":%llu,\"total_us\":%llu}",
                static_cast<unsigned long long>(timings.queue_wait_us),
                static_cast<unsigned long long>(timings.validate_us),
                static_cast<unsigned long long>(timings.explore_us),
                static_cast<unsigned long long>(timings.cache_us),
                static_cast<unsigned long long>(timings.total_us));
  return buf;
}

std::string render_response(const std::string& id, bool cache_hit,
                            const JobTimings& timings,
                            const std::string& result_fragment) {
  std::string out = "{\"id\":\"" + trace::json_escape(id) +
                    "\",\"ok\":true,\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ',';
  // Per-delivery before the fragment: the cached fragment (base_time ...
  // result_digest ... ises) replays byte-identically on every delivery.
  out += render_timings(timings);
  out += ',';
  out += result_fragment;
  out += '}';
  return out;
}

std::string render_response(const std::string& id, bool cache_hit,
                            const std::string& result_fragment) {
  return render_response(id, cache_hit, JobTimings{}, result_fragment);
}

std::string render_error_response(const std::string& id, const Error& error) {
  char code[8];
  std::snprintf(code, sizeof code, "E%04d",
                static_cast<int>(error.code()));
  std::string out = "{\"id\":\"" + trace::json_escape(id) +
                    "\",\"ok\":false,\"error_code\":\"" + code +
                    "\",\"error_name\":\"" +
                    std::string(error_code_name(error.code())) +
                    "\",\"error\":\"" + trace::json_escape(error.message()) +
                    "\"}";
  return out;
}

}  // namespace isex::server
