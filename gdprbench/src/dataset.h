// The benchmark's inputs and its model of acknowledged state.
//
// Every record is a pure function of (seed, ordinal, generation), so the
// loader, the client and the checkers re-derive the same bytes without
// asking the store. Ordinal i belongs to user i % users and purpose
// i % purposes. The one client is the only writer of the store and of the
// model, so the model of acked state is exact.

#pragma once

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gdpr/record.h"

namespace gdprbench {

// SplitMix64 finalizer: the one hash every input is derived from.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Dataset {
  uint64_t seed = 1;
  size_t records = 0;
  size_t users = 0;
  size_t purposes = 0;
  size_t partners = 16;
  size_t share_every = 4;  // one record in this many is loaded shared
  size_t data_bytes = 100;

  size_t UserOf(size_t i) const { return i % users; }
  size_t PurposeOf(size_t i) const { return i % purposes; }

  // Generation 0 is the loaded record; a subject that re-registers after an
  // erasure gets the next generation under a new key, so an erased key is
  // never reused.
  static std::string Key(size_t i, uint32_t gen) {
    char buf[48];
    if (gen == 0) snprintf(buf, sizeof(buf), "rec-%08zu", i);
    else snprintf(buf, sizeof(buf), "rec-%08zu.g%u", i, gen);
    return buf;
  }
  static std::string User(size_t u) {
    char buf[48];
    snprintf(buf, sizeof(buf), "user-%06zu", u);
    return buf;
  }
  static std::string Purpose(size_t p) {
    char buf[48];
    snprintf(buf, sizeof(buf), "pur-%03zu", p);
    return buf;
  }
  static std::string Partner(size_t k) {
    char buf[48];
    snprintf(buf, sizeof(buf), "partner-%02zu", k);
    return buf;
  }

  // Personal data: data_bytes of printable ASCII, drawn from the seed.
  std::string Data(size_t i, uint32_t gen) const {
    std::string out(data_bytes, ' ');
    uint64_t h = Mix(seed ^ Mix(i * 0x100000001b3ull + gen));
    for (size_t b = 0; b < data_bytes; ++b) {
      if (b % 8 == 0) h = Mix(h);
      out[b] = char('!' + (h >> ((b % 8) * 8)) % 94);
    }
    return out;
  }

  // The sharing partner a record is loaded with, drawn from the seed; -1
  // for a record loaded unshared.
  int InitialPartner(size_t i) const {
    const uint64_t h = Mix(seed * 31 + i);
    return h % share_every == 0 ? int((h / share_every) % partners) : -1;
  }

  gdpr::GdprRecord Make(size_t i, uint32_t gen, int partner,
                        int64_t expiry_micros) const {
    gdpr::GdprRecord rec;
    rec.key = Key(i, gen);
    rec.data = Data(i, gen);
    rec.metadata.user = User(UserOf(i));
    rec.metadata.purposes = {Purpose(PurposeOf(i))};
    rec.metadata.origin = (i % 2) ? "first-party" : "third-party";
    if (partner >= 0) rec.metadata.shared_with = {Partner(size_t(partner))};
    rec.metadata.expiry_micros = expiry_micros;
    return rec;
  }
};

// Parses a key made by Dataset::Key. False for anything else.
inline bool ParseKey(std::string_view key, size_t* i, uint32_t* gen) {
  if (key.size() < 12 || key.substr(0, 4) != "rec-") return false;
  size_t v = 0;
  for (size_t k = 4; k < 12; ++k) {
    if (key[k] < '0' || key[k] > '9') return false;
    v = v * 10 + size_t(key[k] - '0');
  }
  uint32_t g = 0;
  if (key.size() > 12) {
    if (key.size() < 15 || key[12] != '.' || key[13] != 'g') return false;
    for (size_t k = 14; k < key.size(); ++k) {
      if (key[k] < '0' || key[k] > '9') return false;
      g = g * 10 + uint32_t(key[k] - '0');
    }
  }
  *i = v;
  *gen = g;
  return true;
}

// Acked state of one ordinal: its live generation, sharing partner and
// retention deadline.
struct SlotState {
  uint32_t gen = 0;
  int32_t partner = -1;  // -1: shared with no one
  int64_t expiry_micros = 0;
};

class Model {
 public:
  explicit Model(const Dataset& ds) : ds_(ds), slots_(ds.records) {
    for (size_t i = 0; i < ds.records; ++i) {
      slots_[i].partner = ds.InitialPartner(i);
    }
  }

  const Dataset& ds() const { return ds_; }

  SlotState& slot(size_t i) { return slots_[i]; }
  const SlotState& slot(size_t i) const { return slots_[i]; }
  // Keys whose erasure the store acked.
  std::vector<std::string>& erased() { return erased_; }
  const std::vector<std::string>& erased() const { return erased_; }

  std::string LiveKey(size_t i) const { return Dataset::Key(i, slots_[i].gen); }
  gdpr::GdprRecord Expected(size_t i) const {
    const SlotState& s = slots_[i];
    return ds_.Make(i, s.gen, s.partner, s.expiry_micros);
  }

  std::vector<size_t> SlotsOfUser(size_t u) const {
    std::vector<size_t> out;
    for (size_t i = u; i < ds_.records; i += ds_.users) out.push_back(i);
    return out;
  }
  std::set<std::string> KeysSharedWith(size_t partner) const {
    std::set<std::string> out;
    for (size_t i = 0; i < ds_.records; ++i) {
      if (slots_[i].partner == int32_t(partner)) out.insert(LiveKey(i));
    }
    return out;
  }
  std::set<std::string> KeysWithPurpose(size_t purpose) const {
    std::set<std::string> out;
    for (size_t i = purpose; i < ds_.records; i += ds_.purposes) {
      out.insert(LiveKey(i));
    }
    return out;
  }

 private:
  Dataset ds_;
  std::vector<SlotState> slots_;
  std::vector<std::string> erased_;
};

}  // namespace gdprbench
