// Output checkers: each compares what the store returns with the model of
// acked state (dataset.h) and reports every difference under the check's
// name. The workloads run them after the timed phase and again after the
// store is reopened from its files; tests/selftest.cc feeds each one a
// state with a single fault and expects that fault to be reported.

#pragma once

#include <string>
#include <vector>

#include "dataset.h"
#include "gdpr/store.h"
#include "storage/env.h"

namespace gdprbench {

class CheckReport {
 public:
  struct Failure {
    std::string check;
    std::string detail;
  };

  // Prefixed to every detail ("post-run", "after-reopen", ...).
  void set_phase(std::string phase) { phase_ = std::move(phase); }
  void Fail(const std::string& check, const std::string& detail);
  void Passed() { ++passed_; }

  bool ok() const { return failures_.empty(); }
  bool Has(const std::string& check) const;
  size_t passed() const { return passed_; }
  const std::vector<Failure>& failures() const { return failures_; }
  // "check: detail" lines, at most `limit` of them.
  std::string Summary(size_t limit = 8) const;

 private:
  std::string phase_;
  std::vector<Failure> failures_;
  size_t passed_ = 0;
};

// "record-state": every live key reads back with the generator's data and
// its last acked metadata (partner, deadline).
void CheckRecordState(gdpr::GdprStore* store, const Model& model,
                      CheckReport* report);
// "sharing-set": ReadMetadataBySharing(p) is exactly the model's key set,
// for every partner p.
void CheckSharingSets(gdpr::GdprStore* store, const Model& model,
                      CheckReport* report);
// "purpose-set": ReadMetadataByPurpose(p) is exactly the model's key set,
// for every purpose p.
void CheckPurposeSets(gdpr::GdprStore* store, const Model& model,
                      CheckReport* report);
// "erasure": every acked erasure reads NotFound and VerifyDeletion is true.
void CheckErasures(gdpr::GdprStore* store, const Model& model,
                   CheckReport* report);
// "audit-chain": the open store's chains verify (every node's and the
// router's on a cluster).
void CheckLiveChains(gdpr::GdprStore* store, CheckReport* report);
// "audit-chain": each closed chain at `paths` replays and verifies from its
// segment files alone.
void CheckChainFiles(gdpr::Env* env, const std::vector<std::string>& paths,
                     CheckReport* report);

}  // namespace gdprbench
