// Values the correctness gates compare against, recorded from the default
// inputs. A change that alters a generated row (a compiler change, or a fix
// of a listed defect) changes these on purpose, and must say so.
//
// Held-out inputs, for checking that a claim made on the defaults also
// holds elsewhere: --manifest-seed 0x484f4c44 and --seed 977. Nothing is
// recorded for them; their runs report failure classes without judging them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ExpectedFailure {
  const char* loop;
  const char* failureClass;  ///< failureClassName()
};

struct Recorded {
  const char* workload;
  std::uint64_t manifestSeed;
  int prefix;
  const char* rowsHash;  ///< semanticRowsHash over the prefix, hex
  std::vector<ExpectedFailure> failures;
};

inline const std::vector<Recorded>& recorded() {
  static const std::vector<Recorded> table = {
      // The cheap pipeline cannot allocate two large deep-recurrence rows.
      {"manifest-cheap", 0x52415054, 2400, "8339a52eca19293e",
       {{"m454_large-deeprec-int", "allocCapacity"},
        {"m1811_large-deeprec-flt", "allocCapacity"}}},
      // m118 hits INT64_MIN / -1 in the simulator's integer division and
      // kills its worker on every attempt: a poisoned Crash row.
      {"shard-full", 0x52415054, 400, "8e485fabca4263f5",
       {{"m118_large-deeprec-int", "crash"}}},
  };
  return table;
}

/// The recorded values for these inputs, or nullptr when none were recorded.
inline const Recorded* recordedFor(const std::string& workload, std::uint64_t manifestSeed,
                                   int prefix) {
  for (const Recorded& r : recorded())
    if (workload == r.workload && manifestSeed == r.manifestSeed && prefix == r.prefix)
      return &r;
  return nullptr;
}

}  // namespace perfbench
