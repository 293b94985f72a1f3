// Layer replay: one job's map, combine and reduce re-executed on a single
// thread through the library's public layer functions, with a span from this
// file around every call. Sharding (contiguous ceil(n/kWorkers) input
// ranges, one combiner per shard) and key→reducer assignment
// (ShuffleReducerForKey) follow the dataflow engine, so the replayed shuffle
// has the job's records and every reducer sees the job's partitions.
//
// Spans never nest, so a layer's self time is the sum of its span
// durations; whatever runs outside every span is reported as
// replay.unattributed_frac of the replay's wall time. Each layer's output
// lives in a buffer the layer's next span overwrites, so freeing it is
// charged to the layer that built it.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dataflow/engine.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/distributed.h"
#include "src/dist/dseq_miner.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"
#include "src/obs/trace.h"
#include "src/util/varint.h"

namespace dseq {
namespace perfbench {
namespace {

// Every layer the replay times; the names are the metric prefixes.
enum Layer {
  kGrid,            // StateGrid::Build on the map side
  kPivot,           // FindPivotItems
  kRewrite,         // PivotRewriter construction + Rewrite
  kNfaBuild,        // ForEachAcceptingRun + OutputNfa::AddRun
  kNfaMinimize,     // OutputNfa::Minimize
  kNfaSerialize,    // SerializeNfaTo
  kCandidates,      // EnumerateCandidates
  kEmit,            // record encoding + append to a reducer bucket
  kCombine,         // MakeSumCombiner/MakeWeightedValueCombiner Add + Flush
  kGroup,           // per-reducer sort of its bucket by key
  kReduceGrid,      // StateGrid::Build of shuffled sequences (D-SEQ reduce)
  kDesqDfs,         // MineDesqDfsGrids
  kNfaDeserialize,  // DeserializeNfa
  kDcandMine,       // MineNfas
  kNaiveReduce,     // SEMI-NAIVE support sum + σ filter
  kNumLayers,
};

constexpr std::array<const char*, kNumLayers> kLayerMetric = {
    "core.grid.self_s",       "core.pivot.self_s",
    "dist.rewrite.self_s",    "nfa.build_self_s",
    "nfa.minimize_self_s",    "nfa.serialize_self_s",
    "core.candidates.self_s", "dataflow.emit.self_s",
    "dataflow.combine.self_s", "dataflow.group.self_s",
    "dist.reduce_grid.self_s", "core.desq_dfs.self_s",
    "nfa.deserialize_self_s", "dist.dcand_mine.self_s",
    "dist.naive_reduce.self_s",
};

// Accumulated span time per layer.
struct LayerClock {
  std::array<int64_t, kNumLayers> ns{};
};

// RAII span: adds [construction, destruction) to one layer.
class Span {
 public:
  Span(LayerClock& clock, Layer layer)
      : slot_(clock.ns[layer]), start_ns_(obs::NowNs()) {}
  ~Span() { slot_ += obs::NowNs() - start_ns_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t& slot_;
  int64_t start_ns_;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// One reducer's shuffle input: records appended to one byte arena.
class Bucket {
 public:
  void Add(std::string_view key, std::string_view value) {
    records_.push_back(Record{bytes_.size(), key.size(), value.size()});
    bytes_.append(key);
    bytes_.append(value);
  }

  // Sorts the records by key, keeping arrival order within a key (the
  // engine's stable grouping).
  void Group() {
    std::stable_sort(records_.begin(), records_.end(),
                     [this](const Record& a, const Record& b) {
                       return Key(a) < Key(b);
                     });
  }

  // Calls fn(key, values) once per distinct key, in key order.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) const {
    std::vector<std::string_view> values;
    for (size_t i = 0; i < records_.size();) {
      std::string_view key = Key(records_[i]);
      values.clear();
      for (; i < records_.size() && Key(records_[i]) == key; ++i) {
        values.push_back(Value(records_[i]));
      }
      fn(key, values);
    }
  }

 private:
  struct Record {
    size_t offset;
    size_t key_size;
    size_t value_size;
  };
  std::string_view Key(const Record& r) const {
    return std::string_view(bytes_).substr(r.offset, r.key_size);
  }
  std::string_view Value(const Record& r) const {
    return std::string_view(bytes_).substr(r.offset + r.key_size,
                                           r.value_size);
  }

  std::string bytes_;
  std::vector<Record> records_;
};

class Replayer {
 public:
  Replayer(Algorithm algorithm, const std::vector<Sequence>& db,
           const Fst& fst, const Dictionary& dict, uint64_t sigma)
      : algorithm_(algorithm), db_(db), fst_(fst), dict_(dict),
        sigma_(sigma), buckets_(kWorkers) {
    grid_options_.prune_sigma = sigma;
  }

  ReplayResult Run() {
    ReplayResult result;
    const double cpu0 = CpuSeconds();
    const int64_t start_ns = obs::NowNs();
    MapPhase();
    ReducePhase(&result.patterns);
    Canonicalize(&result.patterns);
    result.wall_s = static_cast<double>(obs::NowNs() - start_ns) * 1e-9;
    result.cpu_s = CpuSeconds() - cpu0;
    result.metrics = Metrics(result.wall_s);
    return result;
  }

 private:
  void Emit(std::string_view key, std::string_view value) {
    buckets_[ShuffleReducerForKey(key, kWorkers)].Add(key, value);
  }

  void MapPhase() {
    const size_t n = db_.size();
    const size_t shard = (n + kWorkers - 1) / kWorkers;
    for (int w = 0; w < kWorkers; ++w) {
      std::unique_ptr<Combiner> combiner;
      if (algorithm_ == Algorithm::kDCand) {
        combiner = MakeWeightedValueCombiner();
      } else if (algorithm_ == Algorithm::kSemiNaive) {
        combiner = MakeSumCombiner();
      }
      const size_t begin = std::min(n, static_cast<size_t>(w) * shard);
      const size_t end = std::min(n, begin + shard);
      for (size_t i = begin; i < end; ++i) MapOne(db_[i], combiner.get());
      if (combiner != nullptr) {
        Span span(clock_, kCombine);
        combiner->Flush([this](std::string_view key, std::string_view value) {
          Emit(key, value);
        });
      }
    }
  }

  void MapOne(const Sequence& T, Combiner* combiner) {
    {
      Span span(clock_, kGrid);
      grid_ = StateGrid::Build(T, fst_, dict_, grid_options_);
    }
    grid_edges_ += grid_.num_edges();
    if (!grid_.HasAcceptingRun()) return;
    ++accepting_;
    if (algorithm_ == Algorithm::kSemiNaive) {
      MapCandidates(combiner);
      return;
    }
    Sequence pivots;
    {
      Span span(clock_, kPivot);
      pivots = FindPivotItems(grid_);
    }
    pivots_ += pivots.size();
    if (pivots.empty()) return;
    if (algorithm_ == Algorithm::kDSeq) {
      MapRewrite(T, pivots);
    } else {
      MapNfas(pivots, combiner);
    }
  }

  // D-SEQ map: one rewritten copy of T per pivot (MineDSeq's map body).
  void MapRewrite(const Sequence& T, const Sequence& pivots) {
    std::optional<PivotRewriter> rewriter;
    {
      Span span(clock_, kRewrite);
      rewriter.emplace(T, grid_);
    }
    Sequence rewritten;
    for (ItemId k : pivots) {
      {
        Span span(clock_, kRewrite);
        rewritten = rewriter->Rewrite(k);
      }
      input_len_ += T.size();
      rewritten_len_ += rewritten.size();
      Span span(clock_, kEmit);
      value_.clear();
      PutSequence(&value_, rewritten);
      Emit(EncodePivotKey(k), value_);
    }
  }

  // D-CAND map: one minimized, serialized output NFA per pivot (MineDCand's
  // map body with its default options).
  void MapNfas(const Sequence& pivots, Combiner* combiner) {
    std::vector<Sequence> output_sets;
    {
      Span span(clock_, kNfaBuild);
      nfas_.assign(pivots.size(), OutputNfa());
      ForEachAcceptingRun(
          grid_, std::numeric_limits<uint64_t>::max(),
          [&](const std::vector<const StateGrid::Edge*>& run) {
            output_sets.clear();
            for (const StateGrid::Edge* e : run) output_sets.push_back(e->out);
            const PivotSet run_pivots = PivotsOfOutputSets(output_sets);
            for (ItemId k : run_pivots.items) {
              auto it = std::lower_bound(pivots.begin(), pivots.end(), k);
              nfas_[it - pivots.begin()].AddRun(run, k);
            }
          });
    }
    for (size_t i = 0; i < pivots.size(); ++i) {
      OutputNfa& nfa = nfas_[i];
      if (nfa.empty()) continue;
      nfa_states_before_ += nfa.num_states();
      {
        Span span(clock_, kNfaMinimize);
        nfa.Minimize();
      }
      nfa_states_after_ += nfa.num_states();
      {
        Span span(clock_, kNfaSerialize);
        value_.clear();
        PutVarint(&value_, 1);
        SerializeNfaTo(nfa, &value_);
      }
      nfa_bytes_ += value_.size();
      Span span(clock_, kCombine);
      combiner->Add(EncodePivotKey(pivots[i]), value_);
    }
  }

  // SEMI-NAIVE map: one (candidate, 1) record per distinct candidate.
  void MapCandidates(Combiner* combiner) {
    {
      Span span(clock_, kCandidates);
      EnumerateCandidates(grid_, std::numeric_limits<size_t>::max(),
                          &candidates_);
    }
    num_candidates_ += candidates_.size();
    Span span(clock_, kCombine);
    value_.clear();
    PutVarint(&value_, 1);
    std::string key;
    for (const Sequence& candidate : candidates_) {
      key.clear();
      PutSequence(&key, candidate);
      combiner->Add(key, value_);
    }
  }

  void ReducePhase(MiningResult* out) {
    for (Bucket& bucket : buckets_) {
      const int64_t start_ns = obs::NowNs();
      {
        Span span(clock_, kGroup);
        bucket.Group();
      }
      auto reduce = [&](std::string_view key,
                        std::vector<std::string_view>& values) {
        ++partitions_;
        switch (algorithm_) {
          case Algorithm::kDSeq:
            ReduceDSeq(key, values, out);
            break;
          case Algorithm::kDCand:
            ReduceDCand(key, values, out);
            break;
          case Algorithm::kSemiNaive:
            ReduceNaive(key, values, out);
            break;
        }
      };
      if (algorithm_ == Algorithm::kSemiNaive) {
        // Millions of tiny groups: one span over the sweep, not one per key.
        Span span(clock_, kNaiveReduce);
        bucket.ForEachGroup(reduce);
      } else {
        bucket.ForEachGroup(reduce);
      }
      {
        Span span(clock_, kGroup);
        bucket = Bucket();  // release the reducer's input, as the engine does
      }
      reducer_s_.push_back(static_cast<double>(obs::NowNs() - start_ns) *
                           1e-9);
    }
  }

  void ReduceDSeq(std::string_view key,
                  const std::vector<std::string_view>& values,
                  MiningResult* out) {
    {
      Span span(clock_, kReduceGrid);
      reduce_grids_.clear();
      Sequence seq;
      for (std::string_view v : values) {
        size_t pos = 0;
        if (!GetSequence(v, &pos, &seq) || pos != v.size()) {
          throw std::invalid_argument("malformed replayed D-SEQ record");
        }
        reduce_grids_.push_back(
            StateGrid::Build(seq, fst_, dict_, grid_options_));
      }
    }
    DesqDfsOptions local;
    local.sigma = sigma_;
    local.pivot = DecodePivotKey(key);
    const int64_t before = clock_.ns[kDesqDfs];
    MiningResult mined;
    {
      Span span(clock_, kDesqDfs);
      mined = MineDesqDfsGrids(reduce_grids_, local);
    }
    partition_dfs_s_.push_back(
        static_cast<double>(clock_.ns[kDesqDfs] - before) * 1e-9);
    out->insert(out->end(), std::make_move_iterator(mined.begin()),
                std::make_move_iterator(mined.end()));
  }

  void ReduceDCand(std::string_view key,
                   const std::vector<std::string_view>& values,
                   MiningResult* out) {
    std::vector<uint64_t> weights;
    weights.reserve(values.size());
    {
      Span span(clock_, kNfaDeserialize);
      reduce_nfas_.clear();
      for (std::string_view v : values) {
        size_t pos = 0;
        uint64_t weight = 0;
        if (!GetVarint(v, &pos, &weight) || weight == 0) {
          throw std::invalid_argument("malformed replayed NFA record");
        }
        reduce_nfas_.push_back(DeserializeNfa(v, &pos));
        weights.push_back(weight);
      }
    }
    MiningResult mined;
    {
      Span span(clock_, kDcandMine);
      mined = MineNfas(reduce_nfas_, weights, sigma_, DecodePivotKey(key));
    }
    out->insert(out->end(), std::make_move_iterator(mined.begin()),
                std::make_move_iterator(mined.end()));
  }

  void ReduceNaive(std::string_view key,
                   const std::vector<std::string_view>& values,
                   MiningResult* out) {
    uint64_t support = 0;
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t count = 0;
      if (!GetVarint(v, &pos, &count)) {
        throw std::invalid_argument("malformed replayed count record");
      }
      support += count;
    }
    if (support < sigma_) return;
    PatternCount mined;
    size_t pos = 0;
    if (!GetSequence(key, &pos, &mined.pattern)) {
      throw std::invalid_argument("malformed replayed candidate key");
    }
    mined.frequency = support;
    out->push_back(std::move(mined));
  }

  std::vector<Metric> Metrics(double wall_s) const {
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    std::vector<Metric> m;
    double attributed = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
      const double s = static_cast<double>(clock_.ns[l]) * 1e-9;
      attributed += s;
      m.push_back({kLayerMetric[l], s, "s"});
    }
    const double n = static_cast<double>(db_.size());
    m.push_back({"core.grid.edges", static_cast<double>(grid_edges_), "count"});
    m.push_back({"core.grid.accepting_frac", ratio(accepting_, n), "ratio"});
    m.push_back({"core.pivot.pivots_per_seq", ratio(pivots_, n), "count/seq"});
    m.push_back({"dist.rewrite.len_ratio", ratio(rewritten_len_, input_len_),
                 "ratio"});
    std::vector<double> dfs = partition_dfs_s_;
    std::sort(dfs.begin(), dfs.end());
    m.push_back({"core.desq_dfs.partition_s_p50",
                 dfs.empty() ? 0.0 : dfs[dfs.size() / 2], "s"});
    m.push_back({"core.desq_dfs.partition_s_max",
                 dfs.empty() ? 0.0 : dfs.back(), "s"});
    double reducer_max = 0.0;
    double reducer_sum = 0.0;
    for (double s : reducer_s_) {
      reducer_max = std::max(reducer_max, s);
      reducer_sum += s;
    }
    m.push_back({"dist.reduce.time_max_over_mean",
                 ratio(reducer_max, reducer_sum / kWorkers), "ratio"});
    m.push_back({"dist.reduce.critical_path_s", reducer_max, "s"});
    m.push_back({"dist.partitions", static_cast<double>(partitions_),
                 "count"});
    m.push_back({"nfa.states_ratio",
                 ratio(nfa_states_after_, nfa_states_before_), "ratio"});
    m.push_back({"nfa.bytes", static_cast<double>(nfa_bytes_), "bytes"});
    m.push_back({"core.candidates.count", static_cast<double>(num_candidates_),
                 "count"});
    m.push_back({"replay.wall_s", wall_s, "s"});
    m.push_back({"replay.unattributed_frac",
                 ratio(wall_s - attributed, wall_s), "ratio"});
    return m;
  }

  const Algorithm algorithm_;
  const std::vector<Sequence>& db_;
  const Fst& fst_;
  const Dictionary& dict_;
  const uint64_t sigma_;
  GridOptions grid_options_;
  std::vector<Bucket> buckets_;
  std::string value_;
  LayerClock clock_;

  // Per-layer output buffers, reused across calls (see the file comment).
  StateGrid grid_;
  std::vector<Sequence> candidates_;
  std::vector<OutputNfa> nfas_;
  std::vector<StateGrid> reduce_grids_;
  std::vector<OutputNfa> reduce_nfas_;

  // Work counters.
  uint64_t grid_edges_ = 0;
  uint64_t accepting_ = 0;
  uint64_t pivots_ = 0;
  uint64_t input_len_ = 0;
  uint64_t rewritten_len_ = 0;
  uint64_t nfa_states_before_ = 0;
  uint64_t nfa_states_after_ = 0;
  uint64_t nfa_bytes_ = 0;
  uint64_t num_candidates_ = 0;
  uint64_t partitions_ = 0;
  std::vector<double> partition_dfs_s_;
  std::vector<double> reducer_s_;
};

}  // namespace

ReplayResult ReplayJob(Algorithm algorithm, const std::vector<Sequence>& db,
                       const Fst& fst, const Dictionary& dict,
                       uint64_t sigma) {
  return Replayer(algorithm, db, fst, dict, sigma).Run();
}

}  // namespace perfbench
}  // namespace dseq
