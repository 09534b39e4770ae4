// The three GDPRbench role workloads and the harness that runs one of them:
// set up a fresh store (several times, for setup_s), reopen it from its
// files (several times, for recovery_s), drive it from one closed-loop
// client for the run's seconds, check every output against the model,
// reopen the store from its files, check again, and compute the end-to-end
// or, in a traced run, the per-layer metrics.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/distributions.h"
#include "common/random.h"
#include "dataset.h"
#include "gdpr/store.h"
#include "net/wire.h"
#include "store_env.h"
#include "trace.h"

namespace gdprbench {

// Op classes the workloads issue; the order matches the gdpr.* span names.
enum OpClass {
  kOpCreate,
  kOpReadData,
  kOpReadMeta,
  kOpReadMetaByUser,
  kOpReadMetaByPurpose,
  kOpUpdateMeta,
  kOpDeleteKey,
  kOpDeleteUser,
  kOpCount,
};

inline const char* OpClassName(int op) {
  static const char* const kNames[kOpCount] = {
      "create",      "read_data",  "read_meta",  "read_meta_by_user",
      "read_meta_by_purpose", "update_meta", "delete_key", "delete_user"};
  return op >= 0 && op < kOpCount ? kNames[op] : "?";
}

// The closed-loop client: one outstanding store call at a time.
struct Client {
  Client(uint64_t seed, const Model& model);

  // Key popularity as in the repo's GDPRbench runner (bench/runner.h):
  // YCSB Zipfian (theta 0.99) over the ordinals, ordinal 0 the hottest.
  size_t NextOrdinal() { return size_t(key_zipf.Next(rng)); }
  // The same over the ordinals loaded shared with a partner.
  size_t NextShared() { return shared_slots[size_t(shared_zipf.Next(rng))]; }

  // Times one store call as op `op`, with a span when tracing.
  template <typename F>
  auto Timed(int op, F&& f) {
    const int64_t t0 = NowNs();
    auto r = f();
    const int64_t t1 = NowNs();
    latency_ns.push_back(t1 - t0);
    end_ns.push_back(t1);
    ++attempted[op];
    if (tracing) spans.Add(request, uint16_t(op), t0, t1);
    return r;
  }
  // Counts the outcome of a call of op `op` from the status it returned;
  // true when it succeeded.
  bool Succeeded(int op, const gdpr::Status& s, const std::string& key);
  // An output that disagrees with the model.
  void Fault(std::string what);

  gdpr::Random rng;
  gdpr::ZipfianDistribution key_zipf;
  std::vector<size_t> shared_slots;
  gdpr::ZipfianDistribution shared_zipf;

  bool tracing = false;  // the current op falls in a traced slice
  uint64_t request = 0;  // id of the current op (shared by its spans)

  // Per op: latency and completion time (steady clock), both in ns.
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> end_ns;
  uint64_t attempted[kOpCount] = {};
  // Every non-OK status. No op addresses a key the model knows is erased,
  // so a NotFound is a failure like any other.
  uint64_t failed[kOpCount] = {};
  // "<op class> <key>: <status>" of the first few failed calls.
  std::vector<std::string> failure_details;
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  uint64_t queries = 0;        // metadata queries in traced slices
  uint64_t query_records = 0;  // records they returned
  SpanLog spans;
  std::vector<gdpr::net::WireResponse> replies;  // captured in traced slices

  // Outputs that disagree with the model.
  uint64_t faults = 0;
  std::vector<std::string> fault_details;
};

// "op-result": every store call the client made returned OK and every
// output agreed with the model. A run with a failed call is incorrect.
void CheckOpResults(const Client& client, CheckReport* report);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Durability settings of the store's logs, as reported in the fingerprint.
  virtual std::string flush_policy() const = 0;
  virtual Dataset MakeDataset(uint64_t seed) const = 0;
  // A new store instance over the files in env (Open not yet called).
  virtual std::unique_ptr<gdpr::GdprStore> MakeStore(StoreEnv* env) const = 0;
  // Paths of the store's durable audit chains.
  virtual std::vector<std::string> ChainPaths() const = 0;
  // One op of the mix, issued by the client.
  virtual void RunOp(gdpr::GdprStore* store, Model* model, Client* c) = 0;
  // The workload's output checks (the harness adds the audit-chain ones).
  virtual void Check(gdpr::GdprStore* store, const Model& model,
                     CheckReport* report) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_dir;  // where a traced run writes its spans ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string report_json;  // fingerprint, op counts, checks and metrics
};

RunResult RunWorkload(Workload* workload, const RunOptions& options);

}  // namespace gdprbench
