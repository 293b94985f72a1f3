// End-to-end mining benchmark (see README.md for workloads and metrics).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Generates the workload's corpus from the seed, runs its miner through the
// public Mine* entry point in a closed loop (one job at a time) for S
// seconds, checks every job's patterns, and prints the metrics as one JSON
// object on the last line of stdout. --trace 1 additionally replays one job
// layer by layer (replay.cc) and prints the per-layer metrics instead of the
// end-to-end ones. Exits 1 if any job failed or produced wrong patterns.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/dict/sequence.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/obs/trace.h"
#include "src/patex/parser.h"
#include "src/util/check.h"

namespace dseq {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// --- workloads ----------------------------------------------------------------

constexpr const char* kPattern = ".*(.^)[.{0,2}(.^)]{1,2}.*";
constexpr uint64_t kDefaultSeed = 1;

struct Workload {
  const char* name;
  Algorithm algorithm;
  /// Second algorithm whose patterns must equal the first's on seeds that
  /// have no stored expectation.
  Algorithm cross_check;
  size_t num_sequences;
  uint64_t sigma;
  /// Proc backend (forked workers) with a memory budget and a fresh spill
  /// directory per job.
  bool proc_spill;
  /// Pattern count and order-independent checksum at kDefaultSeed.
  uint64_t expected_count;
  uint64_t expected_checksum;
};

// Scaled with the corpus: about 130 spill runs per job, as 16 MiB gives on a
// 10k-sequence corpus.
constexpr uint64_t kProcMemoryBudget = uint64_t{8} << 20;

// σ/|db| ≈ 0.0033 on every workload. At the default seed D-SEQ, D-CAND and
// SEMI-NAIVE return the same patterns on all three corpora.
const Workload kWorkloads[] = {
    {"dseq-hier", Algorithm::kDSeq, Algorithm::kDCand, 3000, 10, false, 82663,
     3216949825296155554ULL},
    {"dcand-hier", Algorithm::kDCand, Algorithm::kSemiNaive, 6000, 20, false,
     79031, 755985753315988135ULL},
    {"seminaive-proc-spill", Algorithm::kSemiNaive, Algorithm::kDCand, 4000,
     13, true, 83522, 8335142037914032174ULL},
};

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDSeq:
      return "D-SEQ";
    case Algorithm::kDCand:
      return "D-CAND";
    case Algorithm::kSemiNaive:
      return "SEMI-NAIVE";
  }
  return "?";
}

// --- corpus -------------------------------------------------------------------

constexpr size_t kLeaves = 2000;
constexpr size_t kCategories = 50;
constexpr size_t kTopCategories = 5;
constexpr size_t kMinLength = 5;
constexpr size_t kMaxLength = 25;

// Sequences of kMinLength..kMaxLength leaves drawn Zipf(s=1) from kLeaves;
// leaf l generalizes to category l % kCategories, category c to top-level
// category c % kTopCategories. Recoded, as every miner expects.
SequenceDatabase GenerateCorpus(uint64_t seed, size_t num_sequences) {
  DictionaryBuilder builder;
  std::vector<ItemId> top(kTopCategories);
  std::vector<ItemId> category(kCategories);
  std::vector<ItemId> leaf(kLeaves);
  for (size_t t = 0; t < kTopCategories; ++t) {
    top[t] = builder.AddItem("t" + std::to_string(t));
  }
  for (size_t c = 0; c < kCategories; ++c) {
    category[c] = builder.AddItem("c" + std::to_string(c));
    builder.AddParent(category[c], top[c % kTopCategories]);
  }
  for (size_t l = 0; l < kLeaves; ++l) {
    leaf[l] = builder.AddItem("l" + std::to_string(l));
    builder.AddParent(leaf[l], category[l % kCategories]);
  }
  std::vector<double> cdf(kLeaves);
  double total = 0.0;
  for (size_t l = 0; l < kLeaves; ++l) {
    total += 1.0 / static_cast<double>(l + 1);
    cdf[l] = total;
  }
  for (double& c : cdf) c /= total;

  SequenceDatabase db;
  db.dict = builder.Build();
  db.sequences.resize(num_sequences);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> length(kMinLength, kMaxLength);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (Sequence& seq : db.sequences) {
    seq.resize(length(rng));
    for (ItemId& item : seq) {
      size_t rank = std::lower_bound(cdf.begin(), cdf.end(), unit(rng)) -
                    cdf.begin();
      item = leaf[std::min(rank, kLeaves - 1)];
    }
  }
  db.Recode();
  return db;
}

struct Corpus {
  SequenceDatabase db;
  Fst fst;
};

struct SetupTimes {
  double total_s;
  double parse_s;
  double compile_s;
};

Corpus Setup(uint64_t seed, size_t num_sequences, SetupTimes* times) {
  const auto start = obs::Now();
  Corpus corpus;
  corpus.db = GenerateCorpus(seed, num_sequences);
  auto mark = obs::Now();
  std::unique_ptr<PatEx> pattern = ParsePatEx(kPattern);
  times->parse_s = obs::SecondsSince(mark);
  mark = obs::Now();
  corpus.fst = CompileFst(*pattern, corpus.db.dict);
  times->compile_s = obs::SecondsSince(mark);
  times->total_s = obs::SecondsSince(start);
  return corpus;
}

// --- jobs ---------------------------------------------------------------------

DistributedResult Mine(Algorithm algorithm, const Corpus& corpus,
                       uint64_t sigma, const DistributedRunOptions& run) {
  const std::vector<Sequence>& db = corpus.db.sequences;
  switch (algorithm) {
    case Algorithm::kDSeq: {
      DSeqOptions options;
      static_cast<DistributedRunOptions&>(options) = run;
      options.sigma = sigma;
      return MineDSeq(db, corpus.fst, corpus.db.dict, options);
    }
    case Algorithm::kDCand: {
      DCandOptions options;
      static_cast<DistributedRunOptions&>(options) = run;
      options.sigma = sigma;
      return MineDCand(db, corpus.fst, corpus.db.dict, options);
    }
    case Algorithm::kSemiNaive: {
      NaiveOptions options;
      static_cast<DistributedRunOptions&>(options) = run;
      options.sigma = sigma;
      options.semi_naive = true;
      return MineNaive(db, corpus.fst, corpus.db.dict, options);
    }
  }
  throw std::logic_error("unknown algorithm");
}

DistributedRunOptions LocalOptions() {
  DistributedRunOptions options;
  options.num_map_workers = kWorkers;
  options.num_reduce_workers = kWorkers;
  options.execution = Execution::kThreads;
  return options;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// User + system CPU of this process and of every reaped child.
double CpuSecondsWithChildren() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
  }
  return total;
}

double PeakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Job {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  DataflowMetrics metrics;
  MiningResult patterns;
};

// Leftovers of a proc/spill job: files in its spill directory and child
// processes that are still running or unreaped. Empty = clean.
std::string ProcLeftovers(const fs::path& spill_dir) {
  std::string leftovers;
  size_t files = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator(spill_dir)) {
    ++files;
  }
  if (files > 0) leftovers += std::to_string(files) + " spill file(s); ";
  int status = 0;
  pid_t pid = waitpid(-1, &status, WNOHANG);
  if (pid > 0) {
    leftovers += "unreaped child " + std::to_string(pid) + "; ";
  } else if (pid == 0) {
    leftovers += "child process still running; ";
  } else if (errno != ECHILD) {
    leftovers += "waitpid failed; ";
  }
  return leftovers;
}

Job RunJob(const Workload& workload, const Corpus& corpus,
           const fs::path& spill_dir) {
  DistributedRunOptions options = LocalOptions();
  if (workload.proc_spill) {
    fs::remove_all(spill_dir);
    fs::create_directories(spill_dir);
    options.backend = DataflowBackend::kProc;
    options.memory_budget_bytes = kProcMemoryBudget;
    options.spill_dir = spill_dir.string();
  }
  Job job;
  const double cpu0 = CpuSecondsWithChildren();
  const auto start = obs::Now();
  DistributedResult result =
      Mine(workload.algorithm, corpus, workload.sigma, options);
  job.wall_s = obs::SecondsSince(start);
  job.cpu_s = CpuSecondsWithChildren() - cpu0;
  job.metrics = result.metrics;
  job.patterns = std::move(result.patterns);
  if (workload.proc_spill) {
    std::string leftovers = ProcLeftovers(spill_dir);
    fs::remove_all(spill_dir);
    if (!leftovers.empty()) {
      throw std::runtime_error("proc/spill hygiene: " + leftovers);
    }
  }
  return job;
}

// --- correctness --------------------------------------------------------------

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-independent checksum over (item names, frequency), so it does not
// depend on how the recoding numbers items.
uint64_t Checksum(const MiningResult& patterns, const Dictionary& dict) {
  uint64_t sum = 0;
  for (const PatternCount& pc : patterns) {
    uint64_t h = 14695981039346656037ULL;  // FNV-1a
    for (ItemId item : pc.pattern) {
      for (char c : dict.Name(item) + " ") {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
    sum += Mix(h ^ Mix(pc.frequency));
  }
  return sum;
}

// --- statistics and output ----------------------------------------------------

double Median(std::vector<double> values) {
  DSEQ_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename Fn>
double MedianOver(const std::vector<Job>& jobs, Fn&& fn) {
  std::vector<double> values;
  for (const Job& job : jobs) values.push_back(fn(job));
  return Median(values);
}

double MaxOverMean(const std::vector<uint64_t>& values) {
  if (values.empty()) return 0.0;
  double max = 0.0;
  double sum = 0.0;
  for (uint64_t v : values) {
    max = std::max(max, static_cast<double>(v));
    sum += static_cast<double>(v);
  }
  return sum > 0 ? max / (sum / static_cast<double>(values.size())) : 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flag without a value");
  if (args.workload.empty() || args.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  return args;
}

constexpr int kSetupRuns = 11;

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }

  // Set-up, repeated: the median is the reported setup_s.
  std::vector<double> setup_s, parse_s, compile_s;
  Corpus corpus;
  for (int r = 0; r < kSetupRuns; ++r) {
    SetupTimes times{};
    corpus = Setup(args.seed, workload->num_sequences, &times);
    setup_s.push_back(times.total_s);
    parse_s.push_back(times.parse_s);
    compile_s.push_back(times.compile_s);
  }

  // Timed closed loop: one job at a time until the time is up.
  fs::create_directories(args.work_dir);
  const fs::path spill_dir =
      args.work_dir / ("spill-" + std::to_string(getpid()));
  std::vector<Job> jobs;
  std::optional<MiningResult> first;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto run_one = [&] {
    ++attempted;
    try {
      Job job = RunJob(*workload, corpus, spill_dir);
      if (!first.has_value()) first = job.patterns;
      if (job.patterns == *first) {
        job.patterns.clear();
        jobs.push_back(std::move(job));
      } else {
        std::cerr << "job " << attempted << ": patterns differ from job 1\n";
        ++failed;
      }
    } catch (const std::exception& e) {
      std::cerr << "job " << attempted << " failed: " << e.what() << "\n";
      ++failed;
    }
  };
  const auto loop_start = obs::Now();
  run_one();
  // Peaks of set-up plus one job. ru_maxrss only rises, and the coordinator
  // of proc jobs grows from job to job, so reading it later would make the
  // peak depend on how many jobs fit in the run, i.e. on speed.
  const double coordinator_rss_mb = PeakRssMb(RUSAGE_SELF);
  const double child_rss_mb = PeakRssMb(RUSAGE_CHILDREN);
  while (obs::SecondsSince(loop_start) < args.seconds) run_one();

  // Reference check of the (shared) job output: the stored digest at the
  // default seed, another algorithm's patterns on any other seed.
  bool reference_ok = false;
  if (first.has_value()) {
    const uint64_t checksum = Checksum(*first, corpus.db.dict);
    if (args.seed == kDefaultSeed) {
      reference_ok = first->size() == workload->expected_count &&
                     checksum == workload->expected_checksum;
    } else {
      const auto start = obs::Now();
      reference_ok = Mine(workload->cross_check, corpus, workload->sigma,
                          LocalOptions())
                         .patterns == *first;
      std::cerr << AlgorithmName(workload->cross_check) << " cross-check took "
                << obs::SecondsSince(start) << " s\n";
    }
    if (!reference_ok) {
      std::cerr << "patterns (" << first->size() << ", checksum " << checksum
                << ") do not match the "
                << (args.seed == kDefaultSeed
                        ? "stored expectation"
                        : AlgorithmName(workload->cross_check))
                << "\n";
      failed = attempted;
      jobs.clear();
    }
  }

  std::vector<Metric> metrics;
  if (!jobs.empty() && !args.trace) {
    metrics = {
        {"wall_s", MedianOver(jobs, [](const Job& j) { return j.wall_s; }),
         "s"},
        {"setup_s", Median(setup_s), "s"},
        {"cpu_s", MedianOver(jobs, [](const Job& j) { return j.cpu_s; }),
         "s"},
        {"peak_rss_mb", std::max(coordinator_rss_mb, child_rss_mb), "MB"},
        {"shuffle_mb",
         static_cast<double>(jobs.front().metrics.shuffle_bytes) * 1e-6,
         "MB"},
    };
  } else if (!jobs.empty()) {
    const DataflowMetrics& m = jobs.front().metrics;
    const double map_s =
        MedianOver(jobs, [](const Job& j) { return j.metrics.map_seconds; });
    const double reduce_s = MedianOver(
        jobs, [](const Job& j) { return j.metrics.reduce_seconds; });
    const double wall_s =
        MedianOver(jobs, [](const Job& j) { return j.wall_s; });
    const double cpu_s = MedianOver(jobs, [](const Job& j) { return j.cpu_s; });
    metrics = {
        {"dataflow.map_s", map_s, "s"},
        {"dataflow.reduce_s", reduce_s, "s"},
        {"dataflow.driver_s", wall_s - map_s - reduce_s, "s"},
        {"dataflow.map_output_records",
         static_cast<double>(m.map_output_records), "count"},
        {"dataflow.shuffle_records", static_cast<double>(m.shuffle_records),
         "count"},
        {"dataflow.combine_ratio",
         m.map_output_records > 0
             ? static_cast<double>(m.shuffle_records) /
                   static_cast<double>(m.map_output_records)
             : 0.0,
         "ratio"},
        {"dataflow.reducer_bytes_max_over_mean", MaxOverMean(m.reducer_bytes),
         "ratio"},
        {"dataflow.coordinator_peak_rss_mb", coordinator_rss_mb, "MB"},
        {"spill.files", static_cast<double>(m.spill_files), "count"},
        {"spill.mb_written", static_cast<double>(m.spill_bytes_written) * 1e-6,
         "MB"},
        {"spill.merge_passes", static_cast<double>(m.spill_merge_passes),
         "count"},
        {"rpc.task_attempts", static_cast<double>(m.proc_task_attempts),
         "count"},
        {"rpc.task_retries",
         MedianOver(jobs,
                    [](const Job& j) {
                      return static_cast<double>(j.metrics.proc_task_retries);
                    }),
         "count"},
        {"rpc.child_peak_rss_mb", child_rss_mb, "MB"},
        {"patex.parse_s", Median(parse_s), "s"},
        {"fst.compile_s", Median(compile_s), "s"},
        {"fst.states", static_cast<double>(corpus.fst.num_states()), "count"},
    };
    // The replay runs after, never inside, the timed jobs.
    ReplayResult replay = ReplayJob(workload->algorithm, corpus.db.sequences,
                                    corpus.fst, corpus.db.dict,
                                    workload->sigma);
    if (replay.patterns != *first) {
      std::cerr << "replayed patterns differ from the timed job's\n";
      failed = attempted;
    }
    metrics.insert(metrics.end(), replay.metrics.begin(),
                   replay.metrics.end());
    metrics.push_back({"replay.cpu_over_timed_cpu",
                       cpu_s > 0 ? replay.cpu_s / cpu_s : 0.0, "ratio"});
  }

  // Human-readable report, then the result object as the last line.
  std::cout << "{\"provenance\": {\"workload\": " << JsonString(workload->name)
            << ", \"algorithm\": " << JsonString(AlgorithmName(workload->algorithm))
            << ", \"seed\": " << args.seed
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
            << ", \"dcheck\": " << (DSEQ_DCHECK_IS_ON ? "true" : "false")
            << ", \"sequences\": " << workload->num_sequences
            << ", \"sigma\": " << workload->sigma
            << ", \"jobs\": " << jobs.size() << ", \"job_wall_s\": [";
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << JsonNumber(jobs[i].wall_s);
  }
  std::cout << "], \"job_cpu_s\": [";
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << JsonNumber(jobs[i].cpu_s);
  }
  std::cout << "]"
            << ", \"patterns\": " << (first ? first->size() : 0)
            << ", \"failed_frac\": "
            << JsonNumber(static_cast<double>(failed) /
                          static_cast<double>(attempted))
            << ", \"coordinator_peak_rss_mb\": "
            << JsonNumber(coordinator_rss_mb)
            << ", \"child_peak_rss_mb\": " << JsonNumber(child_rss_mb)
            << "}}\n";
  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << JsonString(metrics[i].name)
              << ": {\"value\": " << JsonNumber(metrics[i].value)
              << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace dseq

int main(int argc, char** argv) {
  try {
    return dseq::perfbench::Run(dseq::perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
