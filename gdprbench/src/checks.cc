#include "checks.h"

#include <algorithm>

#include "cluster/cluster_store.h"
#include "gdpr/audit.h"

namespace gdprbench {

void CheckReport::Fail(const std::string& check, const std::string& detail) {
  failures_.push_back({check, phase_.empty() ? detail : phase_ + ": " + detail});
}

bool CheckReport::Has(const std::string& check) const {
  return std::any_of(failures_.begin(), failures_.end(),
                     [&](const Failure& f) { return f.check == check; });
}

std::string CheckReport::Summary(size_t limit) const {
  std::string out;
  for (size_t i = 0; i < failures_.size() && i < limit; ++i) {
    out += failures_[i].check + ": " + failures_[i].detail + "\n";
  }
  if (failures_.size() > limit) {
    out += "... " + std::to_string(failures_.size() - limit) + " more\n";
  }
  return out;
}

namespace {

const gdpr::Actor& Controller() {
  static const gdpr::Actor a = gdpr::Actor::Controller("gdprbench-check");
  return a;
}

// First field where got differs from want, or "" when they agree.
std::string Diff(const gdpr::GdprRecord& got, const gdpr::GdprRecord& want) {
  if (got.key != want.key) return "key " + got.key;
  if (got.data != want.data) return "data";
  const auto& g = got.metadata;
  const auto& w = want.metadata;
  if (g.user != w.user) return "user " + g.user;
  if (g.purposes != w.purposes) return "purposes";
  if (g.shared_with != w.shared_with) {
    return "shared_with " + (g.shared_with.empty() ? std::string("{}")
                                                   : g.shared_with[0]);
  }
  if (g.origin != w.origin) return "origin";
  if (g.expiry_micros != w.expiry_micros) {
    return "expiry " + std::to_string(g.expiry_micros) + " != " +
           std::to_string(w.expiry_micros);
  }
  return "";
}

void CompareKeySet(const std::string& check, const std::string& arg,
                   const gdpr::StatusOr<std::vector<gdpr::GdprRecord>>& got,
                   const std::set<std::string>& want, CheckReport* report) {
  if (!got.ok()) {
    report->Fail(check, arg + ": " + got.status().ToString());
    return;
  }
  std::vector<std::string> keys;
  keys.reserve(got.value().size());
  for (const auto& r : got.value()) keys.push_back(r.key);
  std::sort(keys.begin(), keys.end());
  const std::vector<std::string> expect(want.begin(), want.end());
  if (keys == expect) {
    report->Passed();
    return;
  }
  std::vector<std::string> extra, missing;
  std::set_difference(keys.begin(), keys.end(), expect.begin(), expect.end(),
                      std::back_inserter(extra));
  std::set_difference(expect.begin(), expect.end(), keys.begin(), keys.end(),
                      std::back_inserter(missing));
  std::string detail = arg + ": got " + std::to_string(keys.size()) +
                       " keys, want " + std::to_string(expect.size());
  if (!extra.empty()) detail += ", extra " + extra[0];
  if (!missing.empty()) detail += ", missing " + missing[0];
  if (extra.empty() && missing.empty()) detail += ", duplicates";
  report->Fail(check, detail);
}

}  // namespace

void CheckRecordState(gdpr::GdprStore* store, const Model& model,
                      CheckReport* report) {
  for (size_t i = 0; i < model.ds().records; ++i) {
    const gdpr::GdprRecord want = model.Expected(i);
    auto got = store->ReadDataByKey(Controller(), want.key);
    if (!got.ok()) {
      report->Fail("record-state", want.key + ": " + got.status().ToString());
      continue;
    }
    const std::string diff = Diff(got.value(), want);
    if (diff.empty()) report->Passed();
    else report->Fail("record-state", want.key + ": " + diff);
  }
}

void CheckSharingSets(gdpr::GdprStore* store, const Model& model,
                      CheckReport* report) {
  for (size_t p = 0; p < model.ds().partners; ++p) {
    const std::string partner = Dataset::Partner(p);
    CompareKeySet("sharing-set", partner,
                  store->ReadMetadataBySharing(Controller(), partner),
                  model.KeysSharedWith(p), report);
  }
}

void CheckPurposeSets(gdpr::GdprStore* store, const Model& model,
                      CheckReport* report) {
  for (size_t p = 0; p < model.ds().purposes; ++p) {
    const std::string purpose = Dataset::Purpose(p);
    CompareKeySet("purpose-set", purpose,
                  store->ReadMetadataByPurpose(Controller(), purpose),
                  model.KeysWithPurpose(p), report);
  }
}

void CheckErasures(gdpr::GdprStore* store, const Model& model,
                   CheckReport* report) {
  const gdpr::Actor regulator = gdpr::Actor::Regulator("gdprbench-check");
  for (const std::string& key : model.erased()) {
    auto got = store->ReadDataByKey(Controller(), key);
    if (got.ok()) {
      report->Fail("erasure", key + " reads back after its erasure was acked");
      continue;
    }
    if (!got.status().IsNotFound()) {
      report->Fail("erasure", key + ": " + got.status().ToString());
      continue;
    }
    auto verified = store->VerifyDeletion(regulator, key);
    if (!verified.ok() || !verified.value()) {
      report->Fail("erasure", key + ": VerifyDeletion is not true");
      continue;
    }
    report->Passed();
  }
}

void CheckLiveChains(gdpr::GdprStore* store, CheckReport* report) {
  if (auto* cluster = dynamic_cast<gdpr::cluster::ClusterGdprStore*>(store)) {
    std::vector<bool> per_chain;
    cluster->VerifyAuditChains(&per_chain);
    for (size_t i = 0; i < per_chain.size(); ++i) {
      if (per_chain[i]) report->Passed();
      else report->Fail("audit-chain", "chain " + std::to_string(i) +
                                           " of the cluster does not verify");
    }
    return;
  }
  if (store->audit_log()->VerifyChain()) report->Passed();
  else report->Fail("audit-chain", "the store's chain does not verify");
}

void CheckChainFiles(gdpr::Env* env, const std::vector<std::string>& paths,
                     CheckReport* report) {
  for (const std::string& path : paths) {
    gdpr::AuditLog chain;
    gdpr::AuditLogOptions opts;
    opts.env = env;
    opts.path = path;
    gdpr::Status s = chain.OpenDurable(opts);
    if (!s.ok()) {
      report->Fail("audit-chain", path + ": replay refused: " + s.ToString());
      continue;
    }
    if (!chain.VerifyChain()) {
      report->Fail("audit-chain", path + ": does not verify");
    } else {
      report->Passed();
    }
    chain.CloseDurable().ok();
  }
}

}  // namespace gdprbench
