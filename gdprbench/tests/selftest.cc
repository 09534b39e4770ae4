// Checker self-test: each of the benchmark's output checks must report a
// state that has exactly one fault of its kind, and pass the same state
// without it; a run with a failed store call must be reported too. Exits 0 when every case behaves, 1 otherwise.
//
//   python3 gdprbench/run.py --self-test

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace gdprbench {
namespace {

int g_failed = 0;

void Expect(bool cond, const std::string& what) {
  fprintf(stderr, "%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++g_failed;
}

const gdpr::Actor kController = gdpr::Actor::Controller("selftest");

// A small indexed KV store with AOF and a durable audit chain (the
// controller-kv configuration), loaded from the model.
struct Fixture {
  Fixture() : workload(MakeWorkload("controller-kv")), model(Small()) {
    env = std::make_unique<StoreEnv>();
    store = workload->MakeStore(env.get());
    Require(store->Open(), "open");
    for (size_t i = 0; i < model.ds().records; ++i) {
      Require(store->CreateRecord(kController, model.Expected(i)), "load");
    }
  }
  ~Fixture() {
    if (store) store->Close().ok();
  }

  static Dataset Small() {
    Dataset d;
    d.seed = 7;
    d.records = 200;
    d.users = 20;
    d.purposes = 8;
    return d;
  }
  static void Require(const gdpr::Status& s, const char* what) {
    if (!s.ok()) {
      fprintf(stderr, "FAIL fixture %s: %s\n", what, s.ToString().c_str());
      ++g_failed;
    }
  }
  // Closes the store and opens a new instance over `files`.
  void ReopenOn(std::unique_ptr<StoreEnv> files) {
    store->Close().ok();
    store.reset();
    env = std::move(files);
    store = workload->MakeStore(env.get());
    Require(store->Open(), "reopen");
  }
  void Reopen() {
    store->Close().ok();
    store.reset();
    store = workload->MakeStore(env.get());
    Require(store->Open(), "reopen");
  }
  CheckReport Run(const std::function<void(gdpr::GdprStore*, const Model&,
                                           CheckReport*)>& check) {
    CheckReport r;
    check(store.get(), model, &r);
    return r;
  }

  std::unique_ptr<Workload> workload;
  Model model;
  std::unique_ptr<StoreEnv> env;
  std::unique_ptr<gdpr::GdprStore> store;
};

void CleanStatePasses() {
  Fixture f;
  Expect(f.Run(CheckRecordState).ok(), "record-state passes a clean store");
  Expect(f.Run(CheckSharingSets).ok(), "sharing-set passes a clean store");
  Expect(f.Run(CheckPurposeSets).ok(), "purpose-set passes a clean store");
  Expect(f.Run(CheckErasures).ok(), "erasure passes a clean store");
  CheckReport r;
  CheckLiveChains(f.store.get(), &r);
  f.store->Close().ok();
  f.store.reset();
  CheckChainFiles(f.env.get(), f.workload->ChainPaths(), &r);
  Expect(r.ok() && r.passed() == 2, "audit-chain passes a clean chain");
}

void ErasedKeyThatReadsBack() {
  Fixture f;
  const size_t i = 5;
  const std::string key = f.model.LiveKey(i);
  Fixture::Require(f.store->DeleteRecordByKey(kController, key), "delete");
  f.model.erased().push_back(key);
  f.model.slot(i).gen = 1;
  Fixture::Require(
      f.store->CreateRecord(kController, f.model.Expected(i)), "reregister");
  Expect(f.Run(CheckErasures).ok(), "erasure passes an acked erasure");
  // The erased key comes back behind the model's back.
  gdpr::GdprRecord old = f.model.ds().Make(i, 0, f.model.slot(i).partner, 0);
  Fixture::Require(f.store->CreateRecord(kController, old), "resurrect");
  const CheckReport r = f.Run(CheckErasures);
  Expect(r.Has("erasure") && r.failures().size() == 1,
         "erasure reports an erased key that reads back");
}

void AckedWriteMissingAfterReopen() {
  Fixture f;
  f.Reopen();
  auto before_write = std::make_unique<StoreEnv>();
  f.env->CopyTo(before_write.get());
  // An acked partner move...
  const size_t i = 11;
  const int next = (f.model.slot(i).partner + 1) % int(f.model.ds().partners);
  gdpr::MetadataUpdate u;
  u.shared_with = std::vector<std::string>{Dataset::Partner(size_t(next))};
  Fixture::Require(
      f.store->UpdateMetadataByKey(kController, f.model.LiveKey(i), u),
      "update");
  f.model.slot(i).partner = next;
  f.Reopen();
  Expect(f.Run(CheckRecordState).ok(),
         "record-state passes when the acked write survives reopen");
  // ...whose frames are gone when the store comes back.
  f.ReopenOn(std::move(before_write));
  const CheckReport r = f.Run(CheckRecordState);
  Expect(r.Has("record-state") && r.failures().size() == 1,
         "record-state reports an acked write missing after reopen");
  Expect(f.Run(CheckSharingSets).Has("sharing-set"),
         "sharing-set reports the same lost write");
}

void OneKeyTooManyInASet() {
  Fixture f;
  gdpr::GdprRecord extra = f.model.ds().Make(f.model.ds().records, 0, 3, 0);
  extra.metadata.purposes = {Dataset::Purpose(2)};
  Fixture::Require(f.store->CreateRecord(kController, extra), "extra");
  CheckReport r = f.Run(CheckSharingSets);
  Expect(r.Has("sharing-set") && r.failures().size() == 1,
         "sharing-set reports one key too many for a partner");
  r = f.Run(CheckPurposeSets);
  Expect(r.Has("purpose-set") && r.failures().size() == 1,
         "purpose-set reports one key too many for a purpose");
}

void BrokenAuditChain() {
  Fixture f;
  for (size_t i = 0; i < 50; ++i) {
    f.store->ReadMetadataByKey(kController, f.model.LiveKey(i)).ok();
  }
  f.store->Close().ok();
  f.store.reset();
  const std::string seg = "store/audit.seg1";
  auto bytes = f.env->ReadFileToString(seg);
  Expect(bytes.ok() && bytes.value().size() > 64, "audit segment exists");
  if (!bytes.ok()) return;
  std::string damaged = bytes.value();
  damaged[damaged.size() / 2] ^= 0x20;
  auto file = f.env->NewWritableFile(seg, /*truncate=*/true);
  Fixture::Require(file.status(), "rewrite segment");
  if (!file.ok()) return;
  file.value()->Append(damaged).ok();
  file.value()->Close().ok();
  CheckReport r;
  CheckChainFiles(f.env.get(), f.workload->ChainPaths(), &r);
  Expect(r.Has("audit-chain"), "audit-chain reports a flipped byte");
}

void FailedStoreCall() {
  Fixture f;
  Client c(7, f.model);
  for (int k = 0; k < 200; ++k) f.workload->RunOp(f.store.get(), &f.model, &c);
  CheckReport r;
  CheckOpResults(c, &r);
  Expect(r.ok() && f.Run(CheckRecordState).ok() &&
             f.Run(CheckSharingSets).ok(),
         "op-result passes a run of the mix with no failed call");
  // Every record vanishes behind the model's back: each later call fails.
  for (size_t i = 0; i < f.model.ds().records; ++i) {
    Fixture::Require(f.store->DeleteRecordByKey(kController, f.model.LiveKey(i)),
                     "delete");
  }
  for (int k = 0; k < 20; ++k) f.workload->RunOp(f.store.get(), &f.model, &c);
  CheckOpResults(c, &r);
  Expect(r.Has("op-result") && r.failures().size() == 1,
         "op-result reports failed store calls");
}

}  // namespace
}  // namespace gdprbench

int main() {
  gdprbench::CleanStatePasses();
  gdprbench::ErasedKeyThatReadsBack();
  gdprbench::AckedWriteMissingAfterReopen();
  gdprbench::OneKeyTooManyInASet();
  gdprbench::BrokenAuditChain();
  gdprbench::FailedStoreCall();
  fprintf(stderr, "%s: %d failed\n", gdprbench::g_failed ? "FAIL" : "PASS",
          gdprbench::g_failed);
  return gdprbench::g_failed ? 1 : 0;
}
