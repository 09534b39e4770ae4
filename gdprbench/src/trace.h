// Spans the traced run records around each call the benchmark makes into a
// layer's public functions, plus the exact-percentile helpers every figure
// is computed with. Spans stay in the client's memory while it runs and are
// written out once, when the run ends.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace gdprbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span names. The gdpr.* entries follow the op classes in workloads.h.
enum SpanName : uint16_t {
  kSpanGdprCreate,
  kSpanGdprReadData,
  kSpanGdprReadMeta,
  kSpanGdprReadMetaByUser,
  kSpanGdprReadMetaByPurpose,
  kSpanGdprUpdateMeta,
  kSpanGdprDeleteKey,
  kSpanGdprDeleteUser,
  kSpanClusterRouter,   // router ReadDataByKey in the routing probe
  kSpanClusterHandle,   // handle(owner) ReadDataByKey for the same key
  kSpanKvGet,           // kv::MemKV::Get probe
  kSpanKvSet,           // kv::MemKV::Set probe
  kSpanAeadSeal,        // gdpr::Aead::Seal probe
  kSpanAeadOpen,        // gdpr::Aead::Open probe
  kSpanEncodeResponse,  // net::EncodeResponse probe
  kSpanDecodeResponse,  // net::DecodeResponse probe
  kSpanCount,
};

inline const char* SpanNameString(uint16_t n) {
  static const char* const kNames[kSpanCount] = {
      "gdpr.create",       "gdpr.read_data",         "gdpr.read_meta",
      "gdpr.read_meta_by_user", "gdpr.read_meta_by_purpose",
      "gdpr.update_meta",  "gdpr.delete_key",        "gdpr.delete_user",
      "cluster.router",    "cluster.handle",         "kvstore.direct_get",
      "kvstore.direct_set", "crypto.seal",           "crypto.open",
      "net.encode_response", "net.decode_response"};
  return n < kSpanCount ? kNames[n] : "?";
}

// One span. Spans of one request share `request`; `parent` names the span
// that caused this one (kSpanCount = the request itself).
struct Span {
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint16_t name = 0;
  uint16_t parent = kSpanCount;
};

class SpanLog {
 public:
  void Add(uint64_t request, uint16_t name, int64_t start_ns, int64_t end_ns,
           uint16_t parent = kSpanCount) {
    spans_.push_back({request, start_ns, end_ns, name, parent});
  }
  void Append(const SpanLog& o) {
    spans_.insert(spans_.end(), o.spans_.begin(), o.spans_.end());
  }
  // Durations in ns of every span with this name.
  std::vector<int64_t> Durations(uint16_t name) const {
    std::vector<int64_t> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_ns - s.start_ns);
    }
    return out;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // CSV: request,name,parent,start_ns,end_ns. False when the file cannot
  // be written.
  bool WriteCsv(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (!f) return false;
    fprintf(f, "request,name,parent,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      fprintf(f, "%llu,%s,%s,%lld,%lld\n", (unsigned long long)s.request,
              SpanNameString(s.name),
              s.parent == kSpanCount ? "" : SpanNameString(s.parent),
              (long long)s.start_ns, (long long)s.end_ns);
    }
    return fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// Exact percentile (linear between closest ranks) of ns samples, in µs.
// 0 when there are no samples.
inline double PercentileUs(std::vector<int64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const double rank = p / 100.0 * double(ns.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, ns.size() - 1);
  const double v = double(ns[lo]) + (double(ns[hi]) - double(ns[lo])) *
                                        (rank - double(lo));
  return v / 1000.0;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace gdprbench
