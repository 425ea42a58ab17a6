#include "harness/json.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "common/format.hpp"

namespace dynsub::harness {

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::number(std::uint64_t v) { return number(static_cast<double>(v)); }
Json Json::number(std::int64_t v) { return number(static_cast<double>(v)); }

Json Json::string(std::string_view v) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::string(v);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  DYNSUB_CHECK(type_ == Type::kBool);
  return bool_;
}

double Json::as_number() const {
  DYNSUB_CHECK(type_ == Type::kNumber);
  return number_;
}

const std::string& Json::as_string() const {
  DYNSUB_CHECK(type_ == Type::kString);
  return string_;
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  DYNSUB_CHECK(type_ == Type::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), Json());
  return members_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  DYNSUB_CHECK(type_ == Type::kArray);
  items_.push_back(std::move(v));
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                   static_cast<std::size_t>(depth + 1),
                               ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                   static_cast<std::size_t>(depth),
                               ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_shortest(out, number_); break;
    case Type::kString: escape_to(out, string_); break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        escape_to(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: strict recursive descent over the full grammar the dumper emits
// (plus \uXXXX escapes, encoded back out as UTF-8).
// ---------------------------------------------------------------------------
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    skip_ws();
    Json value;
    if (!parse_value(value)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_value(Json& out) {
    if (pos_ >= text_.size()) return false;
    // Depth guard: the schema nests a handful of levels; 128 is generous
    // and keeps hostile inputs from blowing the stack.
    if (depth_ > 128) return false;
    switch (text_[pos_]) {
      case 'n': return eat_literal("null") && (out = Json(), true);
      case 't': return eat_literal("true") && (out = Json::boolean(true), true);
      case 'f':
        return eat_literal("false") && (out = Json::boolean(false), true);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json::string(s);
        return true;
      }
      case '[': return parse_array(out);
      case '{': return parse_object(out);
      default: return parse_number(out);
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return false;
    // JSON forbids leading zeros: the integer part is "0" or [1-9][0-9]*.
    if (digits > 1 && text_[int_start] == '0') return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      std::size_t frac = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      std::size_t exp = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++exp;
      }
      if (exp == 0) return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out = Json::number(std::strtod(token.c_str(), nullptr));
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF; combine
            // into the supplementary-plane code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return false;
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return false;
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return false;  // lone low surrogate
          }
          append_utf8(out, code);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool parse_array(Json& out) {
    if (!eat('[')) return false;
    out = Json::array();
    ++depth_;
    skip_ws();
    if (eat(']')) {
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      Json item;
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (eat(']')) {
        --depth_;
        return true;
      }
      if (!eat(',')) return false;
    }
  }

  bool parse_object(Json& out) {
    if (!eat('{')) return false;
    out = Json::object();
    ++depth_;
    skip_ws();
    if (eat('}')) {
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      Json value;
      if (!parse_value(value)) return false;
      out[key] = std::move(value);
      skip_ws();
      if (eat('}')) {
        --depth_;
        return true;
      }
      if (!eat(',')) return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

// ---------------------------------------------------------------------------
// Schema.
// ---------------------------------------------------------------------------

Json to_json(const RunSummary& s) {
  Json j = Json::object();
  j["n"] = Json::number(static_cast<std::uint64_t>(s.n));
  j["rounds"] = Json::number(s.rounds);
  j["changes"] = Json::number(s.changes);
  j["inconsistent_rounds"] = Json::number(s.inconsistent_rounds);
  j["amortized"] = Json::number(s.amortized);
  j["amortized_sup"] = Json::number(s.amortized_sup);
  j["per_node_sup"] = Json::number(s.per_node_sup);
  j["messages"] = Json::number(s.messages);
  j["payload_bits"] = Json::number(s.payload_bits);
  j["wall_seconds"] = Json::number(s.wall_seconds);
  j["rounds_per_sec"] = Json::number(s.rounds_per_sec);
  j["latency_p50_ns"] = Json::number(s.latency_p50_ns);
  j["latency_p99_ns"] = Json::number(s.latency_p99_ns);
  j["apply_ns"] = Json::number(s.apply_ns);
  j["react_ns"] = Json::number(s.react_ns);
  j["route_ns"] = Json::number(s.route_ns);
  j["receive_ns"] = Json::number(s.receive_ns);
  j["transport_retries"] = Json::number(s.transport_retries);
  j["transport_redeliveries"] = Json::number(s.transport_redeliveries);
  j["transport_corruptions"] = Json::number(s.transport_corruptions);
  j["transport_drops"] = Json::number(s.transport_drops);
  j["transport_lost_batches"] = Json::number(s.transport_lost_batches);
  j["transport_recovery_events"] = Json::number(s.transport_recovery_events);
  j["queries_answered"] = Json::number(s.queries_answered);
  j["queries_shed"] = Json::number(s.queries_shed);
  j["queries_per_sec"] = Json::number(s.queries_per_sec);
  j["answer_p50_ns"] = Json::number(s.answer_p50_ns);
  j["answer_p99_ns"] = Json::number(s.answer_p99_ns);
  return j;
}

Json to_json(const Series& s) {
  Json j = Json::object();
  j["name"] = Json::string(s.name);
  Json points = Json::array();
  for (const auto& p : s.points) {
    Json pt = Json::object();
    pt["x"] = Json::number(p.x);
    pt["y"] = Json::number(p.y);
    points.push_back(std::move(pt));
  }
  j["points"] = std::move(points);
  j["log_log_slope"] = Json::number(log_log_slope(s));
  return j;
}

namespace {

bool read_number(const Json& j, std::string_view key, double& out) {
  const Json* field = j.find(key);
  if (field == nullptr || field->type() != Json::Type::kNumber) return false;
  out = field->as_number();
  return true;
}

}  // namespace

std::optional<RunSummary> run_summary_from_json(const Json& j) {
  RunSummary s;
  double n = 0, rounds = 0, changes = 0, inconsistent = 0, messages = 0,
         payload = 0;
  if (!read_number(j, "n", n) || !read_number(j, "rounds", rounds) ||
      !read_number(j, "changes", changes) ||
      !read_number(j, "inconsistent_rounds", inconsistent) ||
      !read_number(j, "amortized", s.amortized) ||
      !read_number(j, "amortized_sup", s.amortized_sup) ||
      !read_number(j, "per_node_sup", s.per_node_sup) ||
      !read_number(j, "messages", messages) ||
      !read_number(j, "payload_bits", payload)) {
    return std::nullopt;
  }
  s.n = static_cast<std::size_t>(n);
  s.rounds = static_cast<std::int64_t>(rounds);
  s.changes = static_cast<std::uint64_t>(changes);
  s.inconsistent_rounds = static_cast<std::uint64_t>(inconsistent);
  s.messages = static_cast<std::uint64_t>(messages);
  s.payload_bits = static_cast<std::uint64_t>(payload);
  // Perf fields were added after schema v1 documents were first written;
  // treat them as optional so older BENCH_*.json files still parse.
  double ns = 0;
  (void)read_number(j, "wall_seconds", s.wall_seconds);
  (void)read_number(j, "rounds_per_sec", s.rounds_per_sec);
  // Latency percentiles arrived with the telemetry subsystem; optional.
  (void)read_number(j, "latency_p50_ns", s.latency_p50_ns);
  (void)read_number(j, "latency_p99_ns", s.latency_p99_ns);
  if (read_number(j, "apply_ns", ns)) s.apply_ns = static_cast<std::uint64_t>(ns);
  if (read_number(j, "react_ns", ns)) s.react_ns = static_cast<std::uint64_t>(ns);
  if (read_number(j, "route_ns", ns)) s.route_ns = static_cast<std::uint64_t>(ns);
  if (read_number(j, "receive_ns", ns)) {
    s.receive_ns = static_cast<std::uint64_t>(ns);
  }
  // Transport counters arrived with the chaos transport; also optional.
  const auto opt_u64 = [&](std::string_view key, std::uint64_t& out) {
    double value = 0;
    if (read_number(j, key, value)) out = static_cast<std::uint64_t>(value);
  };
  opt_u64("transport_retries", s.transport_retries);
  opt_u64("transport_redeliveries", s.transport_redeliveries);
  opt_u64("transport_corruptions", s.transport_corruptions);
  opt_u64("transport_drops", s.transport_drops);
  opt_u64("transport_lost_batches", s.transport_lost_batches);
  opt_u64("transport_recovery_events", s.transport_recovery_events);
  // Serve-layer counters arrived with the serve subsystem; also optional.
  opt_u64("queries_answered", s.queries_answered);
  opt_u64("queries_shed", s.queries_shed);
  (void)read_number(j, "queries_per_sec", s.queries_per_sec);
  (void)read_number(j, "answer_p50_ns", s.answer_p50_ns);
  (void)read_number(j, "answer_p99_ns", s.answer_p99_ns);
  return s;
}

std::optional<Series> series_from_json(const Json& j) {
  const Json* name = j.find("name");
  const Json* points = j.find("points");
  if (name == nullptr || name->type() != Json::Type::kString ||
      points == nullptr || points->type() != Json::Type::kArray) {
    return std::nullopt;
  }
  Series s;
  s.name = name->as_string();
  for (const Json& pt : points->items()) {
    SeriesPoint p;
    if (!read_number(pt, "x", p.x) || !read_number(pt, "y", p.y)) {
      return std::nullopt;
    }
    s.points.push_back(p);
  }
  return s;
}

Json make_bench_document(std::string_view bench, std::string_view exp_id,
                         std::string_view artifact, std::string_view claim,
                         bool quick) {
  Json doc = Json::object();
  doc["schema_version"] = Json::number(std::int64_t{kBenchSchemaVersion});
  doc["tool"] = Json::string("dynsub-bench");
  doc["bench"] = Json::string(bench);
  doc["exp_id"] = Json::string(exp_id);
  doc["artifact"] = Json::string(artifact);
  doc["claim"] = Json::string(claim);
  doc["quick"] = Json::boolean(quick);
  doc["sweeps"] = Json::array();
  doc["metrics"] = Json::object();
  doc["notes"] = Json::object();
  return doc;
}

Json make_run_document(std::string_view tool, std::string_view scenario,
                       std::string_view detector, std::size_t n,
                       bool settled, const RunSummary& summary) {
  Json doc = Json::object();
  doc["schema_version"] = Json::number(std::int64_t{kRunSchemaVersion});
  doc["tool"] = Json::string(tool);
  doc["scenario"] = Json::string(scenario);
  doc["detector"] = Json::string(detector);
  doc["n"] = Json::number(static_cast<std::uint64_t>(n));
  doc["settled"] = Json::boolean(settled);
  doc["summary"] = to_json(summary);
  return doc;
}

void add_sweep(Json& doc, std::string_view x_name,
               const std::vector<Series>& series) {
  Json sweep = Json::object();
  sweep["x_name"] = Json::string(x_name);
  Json arr = Json::array();
  for (const auto& s : series) arr.push_back(to_json(s));
  sweep["series"] = std::move(arr);
  doc["sweeps"].push_back(std::move(sweep));
}

void add_metric(Json& doc, std::string_view name, double value) {
  doc["metrics"][name] = Json::number(value);
}

void add_note(Json& doc, std::string_view key, std::string_view value) {
  doc["notes"][key] = Json::string(value);
}

bool write_json_file(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = doc.dump(2) + "\n";
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace dynsub::harness
