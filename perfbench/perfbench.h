// Shared declarations of the end-to-end mining benchmark (see README.md).
#ifndef DSEQ_PERFBENCH_PERFBENCH_H_
#define DSEQ_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mining.h"
#include "src/dict/dictionary.h"
#include "src/fst/fst.h"
#include "src/util/common.h"

namespace dseq {
namespace perfbench {

enum class Algorithm { kDSeq, kDCand, kSemiNaive };

/// One named measurement, printed with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Map and reduce workers of every job and of the replay.
inline constexpr int kWorkers = 4;

/// Result of re-executing one job's map, combine and reduce serially through
/// the public layer functions, with a span around every call.
struct ReplayResult {
  MiningResult patterns;  // canonicalized, comparable to the job's
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Per-layer numbers measured by the replay itself (self times, work
  /// counts, reducer skew, replay.unattributed_frac).
  std::vector<Metric> metrics;
};

/// Replays `algorithm` on `db` (fid-recoded with `dict`) with the same
/// sharding, combiners and key→reducer assignment the dataflow engine uses
/// for kWorkers map and reduce workers.
ReplayResult ReplayJob(Algorithm algorithm, const std::vector<Sequence>& db,
                       const Fst& fst, const Dictionary& dict, uint64_t sigma);

}  // namespace perfbench
}  // namespace dseq

#endif  // DSEQ_PERFBENCH_PERFBENCH_H_
