#include "workloads.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "cluster/cluster_store.h"
#include "crypto/aead.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "kvstore/db.h"

#ifndef GDPRBENCH_BUILD_TYPE
#define GDPRBENCH_BUILD_TYPE "unknown"
#endif

namespace gdprbench {
namespace {

using gdpr::Actor;
using gdpr::GdprRecord;
using gdpr::GdprStore;
using gdpr::Status;

// Retention deadlines the customer mix sets: 2100-01-01 plus up to 30
// days, fixed so they are inputs of the seed alone and never expire.
constexpr int64_t kExpiryBaseMicros = 4102444800ll * 1000000;
constexpr int64_t kDayMicros = 86400ll * 1000000;
// Query replies each client keeps (traced slices only) for the wire probe.
constexpr size_t kMaxReplies = 64;
// Span ids of the set-up loads and of the probes; a timed-phase op's id is
// its sequence number.
constexpr uint64_t kLoadSpanIds = uint64_t(1) << 47;
constexpr uint64_t kProbeSpanIds = uint64_t(0xffff) << 48;
// Set-ups and timed reopens per run: at least kMinRepeats of each (one per
// CPU of a 4-vCPU host), and more while they add up to under
// kRepeatSeconds, so a store that sets up or reopens in a fraction of a
// second still gives a median of many while a slow one keeps the run short.
constexpr size_t kMinRepeats = 4;
constexpr size_t kMaxRepeats = 200;
constexpr double kRepeatSeconds = 6.0;
// The timed phase is cut into windows of this length, each run on the next
// CPU; every timing of it is the median over the windows, so the windows
// of a CPU that other tenants slow do not set the run's figure.
constexpr int64_t kWindowNs = 500'000'000;
// A traced run traces one half of every window, the second half and the
// first in turn, so both kinds of slice run on every CPU and equally often
// right after the move to it.
constexpr int64_t kSliceNs = kWindowNs / 2;

const Actor& ControllerActor() {
  static const Actor a = Actor::Controller("gdprbench-controller");
  return a;
}

// First tracked metadata field where got differs from want; "" if none.
std::string MetaDiff(const gdpr::GdprMetadata& got, const GdprRecord& want) {
  const auto& w = want.metadata;
  if (got.user != w.user) return "user";
  if (got.purposes != w.purposes) return "purposes";
  if (got.shared_with != w.shared_with) return "shared_with";
  if (got.expiry_micros != w.expiry_micros) return "expiry";
  return "";
}

std::string RecordDiff(const GdprRecord& got, const GdprRecord& want) {
  if (got.key != want.key) return "key";
  if (got.data != want.data) return "data";
  return MetaDiff(got.metadata, want);
}

// Keys of a query reply, sorted.
std::vector<std::string> SortedKeys(const std::vector<GdprRecord>& recs) {
  std::vector<std::string> keys;
  keys.reserve(recs.size());
  for (const auto& r : recs) keys.push_back(r.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void KeepReply(Client* c, gdpr::net::WireOp op,
               const std::vector<GdprRecord>& recs) {
  ++c->queries;
  c->query_records += recs.size();
  if (c->replies.size() >= kMaxReplies) return;
  gdpr::net::WireResponse r;
  r.op = op;
  r.records = recs;
  c->replies.push_back(std::move(r));
}

// ---------------------------------------------------------------------------
// controller-kv: 50% READ-METADATA-BY-KEY, 50% UPDATE-METADATA-BY-KEY that
// moves the record to another sharing partner, on the indexed KV store.

class ControllerKv : public Workload {
 public:
  const char* name() const override { return "controller-kv"; }
  std::string flush_policy() const override {
    return "MemKV AOF everysec; audit chain everysec";
  }
  Dataset MakeDataset(uint64_t seed) const override {
    Dataset d;
    d.seed = seed;
    d.records = 50000;
    d.users = 5000;
    d.purposes = 64;
    return d;
  }
  std::unique_ptr<GdprStore> MakeStore(StoreEnv* env) const override {
    gdpr::KvGdprOptions o;
    o.compliance.metadata_indexing = true;
    o.kv.env = env;
    o.kv.aof_enabled = true;
    o.kv.aof_path = "store/memkv.aof";
    o.kv.sync_policy = gdpr::SyncPolicy::kEverySec;
    o.audit.path = "store/audit";
    return std::make_unique<gdpr::KvGdprStore>(o);
  }
  std::vector<std::string> ChainPaths() const override {
    return {"store/audit"};
  }

  // Reads pick any record; moves pick among those loaded shared, so every
  // partner's key set keeps its size and the index cost an update pays
  // stays the same through the run.
  void RunOp(GdprStore* store, Model* model, Client* c) override {
    const bool read = c->rng.Uniform(2) == 0;
    const size_t i = read ? c->NextOrdinal() : c->NextShared();
    SlotState& slot = model->slot(i);
    const std::string key = model->LiveKey(i);
    if (read) {
      auto md = c->Timed(kOpReadMeta, [&] {
        return store->ReadMetadataByKey(ControllerActor(), key);
      });
      if (!c->Succeeded(kOpReadMeta, md.status(), key)) return;
      const std::string diff = MetaDiff(md.value(), model->Expected(i));
      if (!diff.empty()) c->Fault(key + " read back a stale " + diff);
      if (c->tracing) {
        ++c->queries;
        ++c->query_records;
        if (c->replies.size() < kMaxReplies) {
          gdpr::net::WireResponse r;
          r.op = gdpr::net::WireOp::kReadMeta;
          r.metadata = md.value();
          c->replies.push_back(std::move(r));
        }
      }
      return;
    }
    // Partner rotation: any partner but the current one, from the seed.
    const size_t partners = model->ds().partners;
    const int next = int(
        (size_t(slot.partner) + 1 + c->rng.Uniform(partners - 1)) % partners);
    gdpr::MetadataUpdate u;
    u.shared_with = std::vector<std::string>{Dataset::Partner(size_t(next))};
    const Status s = c->Timed(kOpUpdateMeta, [&] {
      return store->UpdateMetadataByKey(ControllerActor(), key, u);
    });
    if (c->Succeeded(kOpUpdateMeta, s, key)) slot.partner = next;
  }

  void Check(GdprStore* store, const Model& model,
             CheckReport* report) override {
    CheckRecordState(store, model, report);
    CheckSharingSets(store, model, report);
  }
};

// ---------------------------------------------------------------------------
// customer-rel: the paper's customer mix on the indexed, encrypted
// relational store with WAL and audit at kAlways. Every erased subject
// re-registers through CREATE-RECORD under a new key.

class CustomerRel : public Workload {
 public:
  const char* name() const override { return "customer-rel"; }
  std::string flush_policy() const override {
    return "rel WAL always (fsync-acked group commit); audit chain always";
  }
  Dataset MakeDataset(uint64_t seed) const override {
    Dataset d;
    d.seed = seed;
    d.records = 20000;
    d.users = 2000;
    d.purposes = 64;
    return d;
  }
  std::unique_ptr<GdprStore> MakeStore(StoreEnv* env) const override {
    gdpr::RelGdprOptions o;
    o.compliance.metadata_indexing = true;
    o.compliance.encrypt_at_rest = true;
    o.rel.env = env;
    o.rel.wal_enabled = true;
    o.rel.wal_path = "store/reldb.wal";
    o.rel.sync_policy = gdpr::SyncPolicy::kAlways;
    o.audit.path = "store/audit";
    return std::make_unique<gdpr::RelGdprStore>(o);
  }
  std::vector<std::string> ChainPaths() const override {
    return {"store/audit"};
  }

  void RunOp(GdprStore* store, Model* model, Client* c) override {
    const size_t r = c->rng.Uniform(100);
    const size_t i = c->NextOrdinal();
    const Dataset& ds = model->ds();
    // The by-user ops address the subject of the drawn record.
    if (r < 75 && r >= 50) return ReadByUser(store, model, c, ds.UserOf(i));
    if (r >= 98) return EraseUser(store, model, c, ds.UserOf(i));
    const Actor actor = Actor::Customer(Dataset::User(ds.UserOf(i)));
    const std::string key = model->LiveKey(i);
    if (r < 30) {
      auto rec = c->Timed(kOpReadData,
                       [&] { return store->ReadDataByKey(actor, key); });
      if (!c->Succeeded(kOpReadData, rec.status(), key)) return;
      const std::string diff = RecordDiff(rec.value(), model->Expected(i));
      if (!diff.empty()) c->Fault(key + " read back a wrong " + diff);
    } else if (r < 50) {
      auto md = c->Timed(kOpReadMeta,
                      [&] { return store->ReadMetadataByKey(actor, key); });
      if (!c->Succeeded(kOpReadMeta, md.status(), key)) return;
      const std::string diff = MetaDiff(md.value(), model->Expected(i));
      if (!diff.empty()) c->Fault(key + " read back a stale " + diff);
    } else if (r < 90) {
      // Consent update: a new retention deadline.
      gdpr::MetadataUpdate u;
      const int64_t expiry =
          kExpiryBaseMicros + 1 + int64_t(c->rng.Uniform(30 * kDayMicros));
      u.expiry_micros = expiry;
      const Status s = c->Timed(kOpUpdateMeta, [&] {
        return store->UpdateMetadataByKey(actor, key, u);
      });
      if (c->Succeeded(kOpUpdateMeta, s, key)) {
        model->slot(i).expiry_micros = expiry;
      }
    } else {
      const Status s = c->Timed(kOpDeleteKey,
                             [&] { return store->DeleteRecordByKey(actor, key); });
      if (!c->Succeeded(kOpDeleteKey, s, key)) return;
      model->erased().push_back(key);
      Reregister(store, model, c, i);
    }
  }

  void Check(GdprStore* store, const Model& model,
             CheckReport* report) override {
    CheckRecordState(store, model, report);
    CheckErasures(store, model, report);
  }

 private:
  void ReadByUser(GdprStore* store, Model* model, Client* c, size_t u) {
    const std::string user = Dataset::User(u);
    const Actor actor = Actor::Customer(user);
    auto recs = c->Timed(kOpReadMetaByUser,
                      [&] { return store->ReadMetadataByUser(actor, user); });
    if (!c->Succeeded(kOpReadMetaByUser, recs.status(), user)) return;
    std::vector<std::string> want;
    for (size_t i : model->SlotsOfUser(u)) want.push_back(model->LiveKey(i));
    std::sort(want.begin(), want.end());
    if (SortedKeys(recs.value()) != want) {
      c->Fault(user + " by-user query returned " +
               std::to_string(recs.value().size()) + " records, want " +
               std::to_string(want.size()));
    }
    if (c->tracing) KeepReply(c, gdpr::net::WireOp::kReadMetaUser, recs.value());
  }

  void EraseUser(GdprStore* store, Model* model, Client* c, size_t u) {
    const std::string user = Dataset::User(u);
    const Actor actor = Actor::Customer(user);
    auto n = c->Timed(kOpDeleteUser,
                   [&] { return store->DeleteRecordsByUser(actor, user); });
    if (!c->Succeeded(kOpDeleteUser, n.status(), user)) return;
    const std::vector<size_t> slots = model->SlotsOfUser(u);
    if (n.value() != slots.size()) {
      c->Fault(user + " erasure removed " + std::to_string(n.value()) +
               " records, want " + std::to_string(slots.size()));
    }
    for (size_t i : slots) {
      model->erased().push_back(model->LiveKey(i));
      Reregister(store, model, c, i);
    }
  }

  // The erased subject registers again: the next generation, a new key.
  void Reregister(GdprStore* store, Model* model, Client* c, size_t i) {
    SlotState& slot = model->slot(i);
    ++slot.gen;
    slot.expiry_micros = 0;
    const GdprRecord rec = model->Expected(i);
    const Actor actor = Actor::Customer(rec.metadata.user);
    const Status s =
        c->Timed(kOpCreate, [&] { return store->CreateRecord(actor, rec); });
    c->Succeeded(kOpCreate, s, rec.key);
  }
};

// ---------------------------------------------------------------------------
// processor-socket: 60% READ-DATA-BY-KEY, 40% READ-METADATA-BY-PURPOSE by a
// processor, on a 2-node cluster whose router reaches its nodes over the
// socket transport.

class ProcessorSocket : public Workload {
 public:
  const char* name() const override { return "processor-socket"; }
  std::string flush_policy() const override {
    return "2 nodes, MemKV AOF everysec; audit chains everysec";
  }
  Dataset MakeDataset(uint64_t seed) const override {
    Dataset d;
    d.seed = seed;
    d.records = 20000;
    d.users = 2000;
    d.purposes = 128;
    return d;
  }
  std::unique_ptr<GdprStore> MakeStore(StoreEnv* env) const override {
    gdpr::cluster::ClusterOptions o;
    o.nodes = 2;
    o.compliance.metadata_indexing = true;
    o.kv.env = env;
    o.kv.aof_enabled = true;
    o.kv.aof_path = "store/memkv.aof";
    o.kv.sync_policy = gdpr::SyncPolicy::kEverySec;
    o.audit.path = "store/audit";
    o.transport = gdpr::cluster::ClusterTransport::kLoopbackSocket;
    return std::make_unique<gdpr::cluster::ClusterGdprStore>(o);
  }
  std::vector<std::string> ChainPaths() const override {
    return {"store/audit.node0", "store/audit.node1", "store/audit.router"};
  }

  void RunOp(GdprStore* store, Model* model, Client* c) override {
    const Dataset& ds = model->ds();
    const std::string proc = "gdprbench-processor";
    const bool read = c->rng.Uniform(10) < 6;
    const size_t i = c->NextOrdinal();
    if (read) {
      const Actor actor =
          Actor::Processor(proc, Dataset::Purpose(ds.PurposeOf(i)));
      const std::string key = model->LiveKey(i);
      auto rec = c->Timed(kOpReadData,
                       [&] { return store->ReadDataByKey(actor, key); });
      if (!c->Succeeded(kOpReadData, rec.status(), key)) return;
      const std::string diff = RecordDiff(rec.value(), model->Expected(i));
      if (!diff.empty()) c->Fault(key + " read back a wrong " + diff);
      return;
    }
    // The purpose of the drawn record.
    const size_t p = ds.PurposeOf(i);
    const std::string purpose = Dataset::Purpose(p);
    const Actor actor = Actor::Processor(proc, purpose);
    auto recs = c->Timed(kOpReadMetaByPurpose, [&] {
      return store->ReadMetadataByPurpose(actor, purpose);
    });
    if (!c->Succeeded(kOpReadMetaByPurpose, recs.status(), purpose)) return;
    // Exactly {i : i mod purposes = p}: right count, every key in the
    // class, none twice.
    const size_t want = (ds.records - p + ds.purposes - 1) / ds.purposes;
    std::vector<bool> seen(want, false);
    size_t good = 0;
    for (const auto& r : recs.value()) {
      size_t i = 0;
      uint32_t gen = 0;
      if (!ParseKey(r.key, &i, &gen) || gen != 0 || i % ds.purposes != p ||
          seen[i / ds.purposes]) {
        c->Fault(purpose + " query returned " + r.key);
        return;
      }
      seen[i / ds.purposes] = true;
      ++good;
    }
    if (good != want) {
      c->Fault(purpose + " query returned " + std::to_string(good) +
               " records, want " + std::to_string(want));
    }
    if (c->tracing) {
      KeepReply(c, gdpr::net::WireOp::kReadMetaPurpose, recs.value());
    }
  }

  void Check(GdprStore* store, const Model& model,
             CheckReport* report) override {
    CheckRecordState(store, model, report);
    CheckPurposeSets(store, model, report);
  }
};

// ---------------------------------------------------------------------------
// Harness.

// Loads every record of the model through the store. Returns "" or the
// first error.
std::string Load(GdprStore* store, const Model& model, Client* c,
                 bool trace) {
  for (size_t i = 0; i < model.ds().records; ++i) {
    const GdprRecord rec = model.Expected(i);
    const int64_t t0 = NowNs();
    const Status s = store->CreateRecord(ControllerActor(), rec);
    if (trace) c->spans.Add(kLoadSpanIds | i, kSpanGdprCreate, t0, NowNs());
    if (!s.ok()) return "load " + rec.key + ": " + s.ToString();
  }
  return "";
}

// Direct probes of the inner layers with the workload's own inputs: MemKV
// Get/Set and AEAD Seal/Open on the live records' serialized blobs, the
// wire codec on the query replies the client captured, and (on a cluster)
// the router against a direct call to the owning node's handle.
SpanLog RunProbes(GdprStore* store, const Model& model, const Client& client,
                  std::vector<double>* router_overhead_us,
                  CheckReport* report) {
  SpanLog spans;
  const uint64_t probe = kProbeSpanIds;
  uint64_t seq = 0;
  gdpr::Random rng(model.ds().seed ^ 0x70726f6265ull);
  const size_t n = std::min<size_t>(model.ds().records, 20000);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t(0));
  for (size_t k = n; k > 1; --k) std::swap(order[k - 1], order[rng.Uniform(k)]);
  std::vector<std::string> keys(n), blobs(n);
  for (size_t k = 0; k < n; ++k) {
    const GdprRecord rec = model.Expected(order[k]);
    keys[k] = rec.key;
    blobs[k] = rec.Serialize();
  }

  gdpr::kv::MemKV kv{gdpr::kv::Options{}};
  if (!kv.Open().ok()) report->Fail("probe", "MemKV open");
  for (size_t k = 0; k < n; ++k) {
    const int64_t t0 = NowNs();
    const Status s = kv.Set(keys[k], blobs[k]);
    spans.Add(probe | seq++, kSpanKvSet, t0, NowNs());
    if (!s.ok()) report->Fail("probe", "MemKV set " + keys[k]);
  }
  for (size_t k = 0; k < n; ++k) {
    const size_t j = (k * 7919) % n;
    const int64_t t0 = NowNs();
    auto v = kv.Get(keys[j]);
    spans.Add(probe | seq++, kSpanKvGet, t0, NowNs());
    if (!v.ok() || v.value() != blobs[j]) {
      report->Fail("probe", "MemKV get " + keys[j]);
    }
  }
  kv.Close().ok();

  gdpr::Aead aead("gdprbench-probe-key");
  for (size_t k = 0; k < n; ++k) {
    const int64_t t0 = NowNs();
    const std::string sealed = aead.Seal(blobs[k], k + 1);
    const int64_t t1 = NowNs();
    auto opened = aead.Open(sealed);
    const int64_t t2 = NowNs();
    spans.Add(probe | seq, kSpanAeadSeal, t0, t1);
    spans.Add(probe | seq++, kSpanAeadOpen, t1, t2);
    if (!opened.ok() || opened.value() != blobs[k]) {
      report->Fail("probe", "AEAD round trip " + keys[k]);
    }
  }

  const std::vector<gdpr::net::WireResponse>& replies = client.replies;
  if (!replies.empty()) {
    const size_t rounds = std::max<size_t>(1, 2000 / replies.size());
    for (size_t round = 0; round < rounds; ++round) {
      for (const auto& r : replies) {
        const int64_t t0 = NowNs();
        const std::string wire = gdpr::net::EncodeResponse(r);
        const int64_t t1 = NowNs();
        gdpr::net::WireResponse back;
        const Status s = gdpr::net::DecodeResponse(wire, &back);
        const int64_t t2 = NowNs();
        spans.Add(probe | seq, kSpanEncodeResponse, t0, t1);
        spans.Add(probe | seq++, kSpanDecodeResponse, t1, t2);
        if (!s.ok() || back.records.size() != r.records.size() ||
            back.metadata.shared_with != r.metadata.shared_with) {
          report->Fail("probe", "wire round trip");
        }
      }
    }
  }

  if (auto* cluster = dynamic_cast<gdpr::cluster::ClusterGdprStore*>(store)) {
    const Dataset& ds = model.ds();
    for (size_t k = 0; k < 2000; ++k) {
      const size_t i = rng.Uniform(ds.records);
      const std::string key = model.LiveKey(i);
      const Actor actor =
          Actor::Processor("proc-probe", Dataset::Purpose(ds.PurposeOf(i)));
      const auto& slots = cluster->slot_map();
      gdpr::net::NodeHandle* owner =
          cluster->handle(slots.OwnerOf(slots.SlotOf(key)));
      int64_t router_ns = 0, handle_ns = 0;
      const uint64_t id = probe | seq++;
      // Alternate which call goes first so neither always runs warm.
      for (int leg = 0; leg < 2; ++leg) {
        const bool via_router = (leg == 0) == (k % 2 == 0);
        const int64_t t0 = NowNs();
        auto rec = via_router ? cluster->ReadDataByKey(actor, key)
                              : owner->ReadDataByKey(actor, key);
        const int64_t t1 = NowNs();
        if (via_router) {
          router_ns = t1 - t0;
          spans.Add(id, kSpanClusterRouter, t0, t1);
        } else {
          handle_ns = t1 - t0;
          spans.Add(id, kSpanClusterHandle, t0, t1, kSpanClusterRouter);
        }
        if (!rec.ok()) report->Fail("probe", "routing probe " + key);
      }
      router_overhead_us->push_back(double(router_ns - handle_ns) / 1000.0);
    }
  }
  return spans;
}

// Keeps every thread of the process (client, committer, RPC servers,
// fan-out pool) on one CPU at a time, and moves them all to the next CPU
// the process may use at each step. On a virtual machine a handoff to a
// thread on another, idle vCPU waits for the hypervisor to wake that vCPU,
// so the run stays on one. And each vCPU is slowed by other tenants' load
// on its own, for seconds at a time, so the run visits them all in turn
// (README, "One client, one CPU at a time").
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
  }
  const std::vector<int>& cpus() const { return cpus_; }

  // Moves every thread to the step'th CPU in turn; threads started later
  // inherit it from the thread that starts them.
  void MoveTo(size_t step) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) {
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
    // A thread that ends meanwhile is not an error.
    while (const dirent* t = readdir(tasks)) {
      if (t->d_name[0] != '.') {
        sched_setaffinity(pid_t(atol(t->d_name)), sizeof(one), &one);
      }
    }
    closedir(tasks);
  }

 private:
  std::vector<int> cpus_;
};

// True while the timings of one kind add up to under `budget` seconds (and
// to fewer than kMaxRepeats of them), or number fewer than kMinRepeats.
bool MoreRepeats(const std::vector<double>& seconds,
                 double budget = kRepeatSeconds) {
  double total = 0;
  for (double t : seconds) total += t;
  return seconds.size() < kMinRepeats ||
         (total < budget && seconds.size() < kMaxRepeats);
}

// Opens a fresh instance of the workload's store over the files in env.
// Returns the seconds it took to open; *store is null when it failed to.
double TimedOpen(const Workload& w, StoreEnv* env,
                 std::unique_ptr<GdprStore>* store, CheckReport* report) {
  const int64_t t0 = NowNs();
  *store = w.MakeStore(env);
  const Status s = (*store)->Open();
  const double seconds = double(NowNs() - t0) / 1e9;
  if (!s.ok()) {
    report->Fail("reopen", "open: " + s.ToString());
    store->reset();
  }
  return seconds;
}

// Closes *store and opens a fresh instance over the same files.
double Reopen(const Workload& w, StoreEnv* env,
              std::unique_ptr<GdprStore>* store, CheckReport* report) {
  const Status closed = (*store)->Close();
  if (!closed.ok()) report->Fail("reopen", "close: " + closed.ToString());
  store->reset();
  return TimedOpen(w, env, store, report);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Client::Client(uint64_t seed, const Model& model)
    : rng(seed * 0x9e37 + 1), key_zipf(model.ds().records), shared_zipf(1) {
  for (size_t i = 0; i < model.ds().records; ++i) {
    if (model.slot(i).partner >= 0) shared_slots.push_back(i);
  }
  shared_zipf = gdpr::ZipfianDistribution(shared_slots.size());
}

bool Client::Succeeded(int op, const Status& s, const std::string& key) {
  if (s.ok()) return true;
  ++failed[op];
  if (failure_details.size() < 8) {
    failure_details.push_back(std::string(OpClassName(op)) + " " + key + ": " +
                              s.ToString());
  }
  return false;
}

void Client::Fault(std::string what) {
  ++faults;
  if (fault_details.size() < 8) fault_details.push_back(std::move(what));
}

void CheckOpResults(const Client& client, CheckReport* report) {
  uint64_t failed = 0;
  for (int op = 0; op < kOpCount; ++op) failed += client.failed[op];
  if (failed > 0) {
    report->Fail("op-result",
                 std::to_string(failed) + " store calls failed, first: " +
                     client.failure_details.front());
  }
  for (const auto& d : client.fault_details) report->Fail("op-result", d);
  if (client.faults > client.fault_details.size()) {
    report->Fail("op-result",
                 std::to_string(client.faults - client.fault_details.size()) +
                     " more outputs disagreed with the model");
  }
  if (failed == 0 && client.faults == 0) report->Passed();
}

std::vector<std::string> WorkloadNames() {
  return {"controller-kv", "customer-rel", "processor-socket"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "controller-kv") return std::make_unique<ControllerKv>();
  if (name == "customer-rel") return std::make_unique<CustomerRel>();
  if (name == "processor-socket") return std::make_unique<ProcessorSocket>();
  return nullptr;
}

RunResult RunWorkload(Workload* w, const RunOptions& opt) {
  const size_t nproc = std::max<unsigned>(1, std::thread::hardware_concurrency());
  const CpuRotation cpu;
  const Dataset ds = w->MakeDataset(opt.seed);
  Model model(ds);
  Client client(opt.seed, model);
  CheckReport report;

  // --- Set-up: open + load a fresh store, several times; the last one is
  // the store the run goes on with.
  std::vector<double> setup_s;
  std::unique_ptr<StoreEnv> env;
  std::unique_ptr<GdprStore> store;
  report.set_phase("setup");
  while (MoreRepeats(setup_s)) {
    cpu.MoveTo(setup_s.size());
    store.reset();
    env = std::make_unique<StoreEnv>();
    const int64_t t0 = NowNs();
    store = w->MakeStore(env.get());
    const Status s = store->Open();
    const std::string err =
        s.ok() ? Load(store.get(), model, &client, opt.trace)
               : "open: " + s.ToString();
    setup_s.push_back(double(NowNs() - t0) / 1e9);
    if (!err.empty()) {
      report.Fail("setup", err);
      break;
    }
    fprintf(stderr, "gdprbench: %s set-up %zu: %.3f s\n", w->name(),
            setup_s.size(), setup_s.back());
  }
  const double space_factor =
      double(store->TotalBytes()) / double(ds.records * ds.data_bytes);

  // --- Recovery of the loaded store: Close, then Open of a fresh instance
  // on the same files, several times. The files hold the same records and
  // audit entries in every run, so the work a reopen does does not follow
  // the run's throughput. Half of the time for it goes here, the other half
  // to opens of a copy of these files after the timed phase, so that a few
  // seconds in which other tenants slow the host do not set the median.
  // The timed phase runs on the last instance.
  std::vector<double> recovery_s;
  report.set_phase("recovery");
  while (report.ok() && MoreRepeats(recovery_s, kRepeatSeconds / 2)) {
    cpu.MoveTo(recovery_s.size());
    recovery_s.push_back(Reopen(*w, env.get(), &store, &report));
    fprintf(stderr, "gdprbench: %s reopen %zu: %.4f s\n", w->name(),
            recovery_s.size(), recovery_s.back());
  }

  if (!store || !report.ok()) {
    fprintf(stderr, "gdprbench: correctness check failed:\n%s",
            report.Summary().c_str());
    RunResult out;
    out.correct = false;
    out.report_json = "{\"gdprbench\":{\"workload\":" + JsonString(w->name()) +
                      ",\"checks\":{\"failed\":[" +
                      JsonString(report.failures().front().check + ": " +
                                 report.failures().front().detail) +
                      "]}}}";
    return out;
  }

  // The process's peak memory through set-up and recovery, less the
  // store's files, which sit in this process only because the Env is in
  // memory. Read before the timed phase: the audit log keeps every entry in
  // a vector, whose doubling steps make a later peak follow the number of
  // ops the host let the run complete.
  const double peak_rss_mb =
      PeakRssMb() - double(env->TotalFileBytes()) / (1024.0 * 1024.0);
  // The loaded store's files, for the reopens after the timed phase.
  StoreEnv loaded;
  env->CopyTo(&loaded);

  // --- Timed phase: the closed loop. A traced run traces every other
  // slice, so the cost of tracing is measured in the same run.
  const gdpr::obs::RegistrySnapshot before = store->StatsSnapshot();
  const uint64_t file_bytes_before = env->TotalFileBytes();
  int64_t traced_ns = 0, untraced_ns = 0;
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + int64_t(opt.seconds * 1e9);
  size_t window = SIZE_MAX;
  for (int64_t now = t_start; now < t_end;) {
    // Each window of the timed phase runs on the next CPU.
    if (size_t((now - t_start) / kWindowNs) != window) {
      window = size_t((now - t_start) / kWindowNs);
      cpu.MoveTo(window);
    }
    const int64_t slice = (now - t_start) / kSliceNs;
    client.tracing = opt.trace && (slice + slice / 2) % 2 == 1;
    w->RunOp(store.get(), &model, &client);
    ++client.request;
    const int64_t next = NowNs();
    if (client.tracing) {
      ++client.traced_ops;
      traced_ns += next - now;
    } else {
      ++client.untraced_ops;
      untraced_ns += next - now;
    }
    now = next;
  }
  const double elapsed_s = double(NowNs() - t_start) / 1e9;
  const gdpr::obs::RegistrySnapshot after = store->StatsSnapshot();
  const uint64_t file_bytes_after = env->TotalFileBytes();

  uint64_t attempted = 0, failed = 0, writes = 0;
  std::string op_json;
  for (int op = 0; op < kOpCount; ++op) {
    const uint64_t a = client.attempted[op], f = client.failed[op];
    attempted += a;
    failed += f;
    if (op == kOpCreate || op == kOpUpdateMeta || op == kOpDeleteKey ||
        op == kOpDeleteUser) {
      writes += a;
    }
    op_json += std::string(op_json.empty() ? "" : ",") + "\"" +
               OpClassName(op) + "\":{\"attempted\":" + std::to_string(a) +
               ",\"failed\":" + std::to_string(f) + "}";
    if (a) {
      fprintf(stderr, "gdprbench: %-22s attempted %10llu  failed %llu\n",
              OpClassName(op), (unsigned long long)a, (unsigned long long)f);
    }
  }
  report.set_phase("timed");
  CheckOpResults(client, &report);
  SpanLog spans;
  spans.Append(client.spans);

  // --- Checks on the live store, probes, then reopen from the files.
  report.set_phase("post-run");
  w->Check(store.get(), model, &report);
  CheckLiveChains(store.get(), &report);

  std::vector<double> router_overhead_us;
  if (opt.trace) {
    spans.Append(
        RunProbes(store.get(), model, client, &router_overhead_us, &report));
  }

  // --- Reopen from the files the timed phase left, and check again.
  report.set_phase("reopen");
  if (store) Reopen(*w, env.get(), &store, &report);
  if (store) {
    report.set_phase("after-reopen");
    w->Check(store.get(), model, &report);
    CheckLiveChains(store.get(), &report);
    const Status closed = store->Close();
    if (!closed.ok()) report.Fail("reopen", "close: " + closed.ToString());
    store.reset();
  }
  report.set_phase("chain-files");
  CheckChainFiles(env.get(), w->ChainPaths(), &report);

  // --- The other half of the recovery timings, on the loaded store's files.
  report.set_phase("recovery");
  while (report.ok() && MoreRepeats(recovery_s)) {
    cpu.MoveTo(recovery_s.size());
    recovery_s.push_back(TimedOpen(*w, &loaded, &store, &report));
    fprintf(stderr, "gdprbench: %s reopen %zu: %.4f s\n", w->name(),
            recovery_s.size(), recovery_s.back());
    if (!store) break;
    const Status closed = store->Close();
    if (!closed.ok()) report.Fail("reopen", "close: " + closed.ToString());
    store.reset();
  }

  // --- Metrics.
  RunResult out;
  out.correct = report.ok() && attempted > 0;
  out.attempted = attempted;
  out.failed = failed;
  auto add = [&out](std::string name, double v, std::string unit) {
    out.metrics.push_back({std::move(name), v, std::move(unit)});
  };
  auto per_op = [attempted](double v) {
    return attempted ? v / double(attempted) : 0.0;
  };
  if (!opt.trace) {
    // Per window of the timed phase: the ops that completed in it.
    const size_t windows = size_t(opt.seconds * 1e9) / size_t(kWindowNs);
    std::vector<std::vector<int64_t>> window_latency(windows);
    for (size_t k = 0; k < client.latency_ns.size(); ++k) {
      const size_t win = size_t((client.end_ns[k] - t_start) / kWindowNs);
      if (win < windows) window_latency[win].push_back(client.latency_ns[k]);
    }
    std::vector<double> rate, p90, p99;
    for (const auto& lat : window_latency) {
      rate.push_back(double(lat.size()) * 1e9 / double(kWindowNs));
      p90.push_back(PercentileUs(lat, 90));
      p99.push_back(PercentileUs(lat, 99));
    }
    // A run shorter than one window reports over the whole phase.
    if (windows == 0) {
      rate.push_back(double(attempted) / elapsed_s);
      p90.push_back(PercentileUs(client.latency_ns, 90));
      p99.push_back(PercentileUs(client.latency_ns, 99));
    }
    add("ops_per_s", Median(rate), "ops/s");
    add("p90_us", Median(p90), "us");
    add("p99_us", Median(p99), "us");
    add("setup_s", Median(setup_s), "s");
    add("recovery_s", Median(recovery_s), "s");
    add("space_factor", space_factor, "ratio");
    add("log_bytes_per_op", per_op(double(file_bytes_after - file_bytes_before)),
        "bytes");
    add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const gdpr::obs::RegistrySnapshot delta = after.Delta(before);
    auto hist = [&delta](const std::string& name) {
      const auto* h = delta.FindHistogram(name);
      return h ? *h : gdpr::obs::HistogramSnapshot{};
    };
    auto hist_family = [&delta](const std::string& prefix) {
      gdpr::obs::HistogramSnapshot all;
      for (const auto& h : delta.histograms) {
        if (h.name.rfind(prefix, 0) == 0) all.MergeFrom(h);
      }
      return all;
    };
    auto counter = [&delta](const std::string& name) {
      return double(delta.CounterValue(name));
    };
    auto span_p = [&spans](uint16_t name, double p) {
      return PercentileUs(spans.Durations(name), p);
    };
    auto add_pct = [&add](const std::string& name,
                          const gdpr::obs::HistogramSnapshot& h) {
      add(name + ".p50_us", h.Percentile(50), "us");
      add(name + ".p99_us", h.Percentile(99), "us");
    };

    for (int op = 0; op < kOpCount; ++op) {
      const std::string base = std::string("gdpr.") + OpClassName(op);
      add(base + ".p50_us", span_p(uint16_t(op), 50), "us");
      add(base + ".p99_us", span_p(uint16_t(op), 99), "us");
    }
    add_pct("gdpr.engine_op", hist_family("gdpr_op_us{"));
    add("gdpr.records_per_query",
        client.queries
            ? double(client.query_records) / double(client.queries)
            : 0.0,
        "count");
    const double retired =
        double(after.GaugeValue("gdpr_index_retired_nodes") -
               before.GaugeValue("gdpr_index_retired_nodes"));
    add("gdpr.index.retired_nodes_per_write",
        writes ? retired / double(writes) : 0.0, "count");
    const double records = double(after.GaugeValue("gdpr_records"));
    add("gdpr.index.bytes_per_record",
        records > 0 ? double(after.GaugeValue("gdpr_index_bytes")) / records
                    : 0.0,
        "bytes");
    add("gdpr.audit.appends_per_op", per_op(counter("audit_appends_total")),
        "count");
    add("gdpr.audit.persisted_bytes_per_op",
        per_op(counter("audit_persisted_bytes_total")), "bytes");

    add_pct("kvstore.get", hist("memkv_get_us"));
    add_pct("kvstore.set", hist("memkv_set_us"));
    add("kvstore.gets_per_op", per_op(double(hist("memkv_get_us").count)),
        "count");
    add("kvstore.aof_bytes_per_op",
        per_op(counter("memkv_aof_append_bytes_total")), "bytes");
    add("kvstore.direct_get.p50_us", span_p(kSpanKvGet, 50), "us");
    add("kvstore.direct_set.p50_us", span_p(kSpanKvSet, 50), "us");
    add("kvstore.epoch_retired_backlog",
        double(after.GaugeValue("epoch_retired_backlog")), "count");

    double statements = 0;
    for (const char* stmt : {"select", "insert", "update", "delete"}) {
      const auto h = hist(std::string("reldb_") + stmt + "_us");
      add_pct(std::string("relstore.") + stmt, h);
      statements += double(h.count);
    }
    add("relstore.statements_per_op", per_op(statements), "count");
    add("relstore.wal_bytes_per_op",
        per_op(counter("reldb_wal_append_bytes_total")), "bytes");

    add("storage.batch_frames_mean", hist("commit_batch_frames").Mean(),
        "count");
    add_pct("storage.fsync", hist("commit_fsync_us"));
    for (const char* log : {"kv-aof", "rel-wal", "audit"}) {
      add_pct(std::string("storage.stall.") + log,
              hist(std::string("commit_stall_us{log=\"") + log + "\"}"));
    }
    add("storage.fsyncs_per_op", per_op(double(hist("commit_fsync_us").count)),
        "count");

    add("crypto.seal.p50_us", span_p(kSpanAeadSeal, 50), "us");
    add("crypto.open.p50_us", span_p(kSpanAeadOpen, 50), "us");

    add_pct("net.rpc", hist_family("cluster_rpc_us{"));
    add("net.rpc_bytes_per_op", per_op(counter("cluster_rpc_bytes_total")),
        "bytes");
    add("net.encode_response.p50_us", span_p(kSpanEncodeResponse, 50), "us");
    add("net.decode_response.p50_us", span_p(kSpanDecodeResponse, 50), "us");

    add_pct("cluster.fanout", hist_family("cluster_node_fanout_us{"));
    add("cluster.router_overhead.p50_us", Median(router_overhead_us), "us");

    const double traced_rate =
        traced_ns ? double(client.traced_ops) / (double(traced_ns) / 1e9)
                  : 0.0;
    const double untraced_rate =
        untraced_ns ? double(client.untraced_ops) / (double(untraced_ns) / 1e9)
                    : 0.0;
    add("trace.traced_ops_per_s", traced_rate, "ops/s");
    add("trace.untraced_ops_per_s", untraced_rate, "ops/s");
    add("trace.cost_pct",
        untraced_rate > 0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate
                          : 0.0,
        "%");

    if (!opt.trace_dir.empty()) {
      const std::string path = opt.trace_dir + "/" + w->name() + "-seed" +
                               std::to_string(opt.seed) + ".csv";
      if (spans.WriteCsv(path)) {
        fprintf(stderr, "gdprbench: %zu spans written to %s\n",
                spans.spans().size(), path.c_str());
      } else {
        fprintf(stderr, "gdprbench: could not write spans to %s\n",
                path.c_str());
      }
    }
  }

  // --- The full report: fingerprint, op counts, checks, metrics.
  std::string metrics_json;
  for (const Metric& m : out.metrics) {
    metrics_json += std::string(metrics_json.empty() ? "" : ",") +
                    JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
                    ",\"unit\":" + JsonString(m.unit) + "}";
    fprintf(stderr, "gdprbench: %-40s %14.4f %s\n", m.name.c_str(), m.value,
            m.unit.c_str());
  }
  std::string failures_json;
  for (const auto& f : report.failures()) {
    if (failures_json.size() > 4096) break;
    failures_json += std::string(failures_json.empty() ? "" : ",") +
                     JsonString(f.check + ": " + f.detail);
  }
  out.report_json =
      "{\"gdprbench\":{\"workload\":" + JsonString(w->name()) +
      ",\"trace\":" + (opt.trace ? "true" : "false") +
      ",\"fingerprint\":{\"nproc\":" + std::to_string(nproc) +
      ",\"cpus\":" + std::to_string(cpu.cpus().size()) +
      ",\"compiler\":" + JsonString(Compiler()) +
      ",\"build_type\":" + JsonString(GDPRBENCH_BUILD_TYPE) +
      ",\"git_sha\":" + JsonString(opt.git_sha) +
      ",\"store_fs\":" + JsonString("MemEnv (in-process memory-backed Env)") +
      ",\"flush_policy\":" + JsonString(w->flush_policy()) + "}" +
      ",\"inputs\":{\"seed\":" + std::to_string(opt.seed) +
      ",\"seconds\":" + JsonNumber(opt.seconds) +
      ",\"clients\":1" +
      ",\"records\":" + std::to_string(ds.records) +
      ",\"users\":" + std::to_string(ds.users) +
      ",\"purposes\":" + std::to_string(ds.purposes) +
      ",\"partners\":" + std::to_string(ds.partners) +
      ",\"data_bytes\":" + std::to_string(ds.data_bytes) + "}" +
      ",\"ops\":{" + op_json + "}" +
      ",\"checks\":{\"passed\":" + std::to_string(report.passed()) +
      ",\"failed\":[" + failures_json + "]}" +
      ",\"metrics\":{" + metrics_json + "}}}";
  if (!report.ok()) {
    fprintf(stderr, "gdprbench: correctness check failed:\n%s",
            report.Summary().c_str());
  } else {
    fprintf(stderr, "gdprbench: %zu checks passed\n", report.passed());
  }
  return out;
}

}  // namespace gdprbench
