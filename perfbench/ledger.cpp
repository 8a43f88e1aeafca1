#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

using spire::sim::kNever;
using spire::sim::Time;

DisplayLedger::DisplayLedger(std::size_t hmis, std::size_t breakers_per_device)
    : hmis_(hmis), per_device_(breakers_per_device) {}

DisplayLedger::Key& DisplayLedger::key(const std::string& device,
                                       std::size_t index) {
  if (index >= per_device_) throw std::out_of_range("breaker index");
  auto [it, inserted] = device_ids_.try_emplace(
      device, static_cast<std::uint32_t>(device_ids_.size()));
  if (inserted) {
    keys_.resize(keys_.size() + per_device_);
    for (std::size_t i = keys_.size() - per_device_; i < keys_.size(); ++i) {
      keys_[i].cursor.assign(hmis_, 0);
    }
  }
  return keys_[it->second * per_device_ + index];
}

void DisplayLedger::field_change(const std::string& device, std::size_t index,
                                 bool closed, Time at, bool counted) {
  key(device, index).changes.push_back(
      Change{at, closed, counted, std::vector<Time>(hmis_, kNever)});
}

void DisplayLedger::displayed(std::size_t hmi, const std::string& device,
                              std::size_t index, bool closed, Time at) {
  Key& k = key(device, index);
  std::size_t& c = k.cursor[hmi];
  // Changes to the other value that this display jumps over were never
  // on screen; a display can only show changes that already happened.
  while (c < k.changes.size() && k.changes[c].at <= at &&
         k.changes[c].closed != closed) {
    ++c;
  }
  if (c < k.changes.size() && k.changes[c].at <= at) {
    k.changes[c].shown[hmi] = at;
    if (k.changes[c].counted) ++displays_;
    ++c;
  }
}

void DisplayLedger::tally(std::vector<double>& samples_ms,
                          std::uint64_t& attempted,
                          std::uint64_t& failed) const {
  for (const Key& k : keys_) {
    for (const Change& ch : k.changes) {
      if (!ch.counted) continue;
      ++attempted;
      bool everywhere = true;
      for (const Time shown : ch.shown) {
        if (shown == kNever) {
          everywhere = false;
        } else {
          samples_ms.push_back(static_cast<double>(shown - ch.at) / 1000.0);
        }
      }
      if (!everywhere) ++failed;
    }
  }
}

}  // namespace perfbench
