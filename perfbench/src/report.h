// Result plumbing shared by the benchmark's translation units: a tiny JSON
// writer (values keep every digit, as measured), order statistics, and the
// metric set one run reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock every span and delivery stamp uses.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- JSON -------------------------------------------------------------------

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// An insertion-ordered JSON object under construction.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_num(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.dump());
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += json_str(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- order statistics --------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median per-call microseconds of `fn`: repeat it in batches sized to
/// roughly `batch_s` seconds, `batches` times.
template <class Fn>
double time_us(Fn&& fn, int batches = 7, double batch_s = 0.01) {
  const double t0 = now_s();
  fn();
  const double one = std::max(now_s() - t0, 1e-8);
  const auto reps = static_cast<std::size_t>(
      std::clamp(batch_s / one, 1.0, 1e6));
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double s = now_s();
    for (std::size_t r = 0; r < reps; ++r) fn();
    per_call.push_back((now_s() - s) * 1e6 / static_cast<double>(reps));
  }
  return median(per_call);
}

// ---- metrics -----------------------------------------------------------------

/// Named metrics in emission order, as {"name": {"value", "unit"}}.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    json_.obj(name, JsonObject().num("value", value).str("unit", unit));
  }
  const JsonObject& json() const { return json_; }

 private:
  JsonObject json_;
};

}  // namespace perfbench
