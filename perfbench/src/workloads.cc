#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "cluster/projected.h"
#include "core/dynamic_engine.h"
#include "core/engine.h"
#include "core/local_engine.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "index/kd_tree.h"
#include "index/linear_scan.h"
#include "linalg/blocked_matrix.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "obs/query_metrics.h"
#include "oracle.h"
#include "reduction/coherence.h"
#include "reduction/pipeline.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "stats/covariance.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

using cohere::BlockedMatrix;
using cohere::Dataset;
using cohere::DynamicEngineOptions;
using cohere::DynamicReducedIndex;
using cohere::EngineOptions;
using cohere::EngineSnapshot;
using cohere::KnnIndex;
using cohere::LocalEngineOptions;
using cohere::LocalReducedSearchEngine;
using cohere::Matrix;
using cohere::Neighbor;
using cohere::ReducedSearchEngine;
using cohere::ReductionOptions;
using cohere::ReductionPipeline;
using cohere::SnapshotShard;
using cohere::Status;
using cohere::Vector;
using Span = Tracer::Span;

constexpr size_t kK = 10;                 // neighbours per served query
constexpr size_t kAccuracyK = 3;          // the paper's k
constexpr size_t kAccuracyQueries = 1000; // fixed pass: accuracy and counts
constexpr size_t kSetupReps = 5;          // traced run: builds per mode
constexpr size_t kBatchRows = 256;
constexpr size_t kModeQueries = 500;      // per mode of the traced query pass
constexpr size_t kModes = 5;
constexpr size_t kSimdCalls = 200;
constexpr size_t kRouteQueries = 200;
constexpr uint64_t kCheckEvery = 16;      // 1 in 16 answers is checked
// Minimum samples of an untraced run.
constexpr size_t kMinSetups = 5;
constexpr size_t kMinSerialQueries = 1000;
constexpr size_t kP99Window = 2000;  // twenty samples beyond the p99
constexpr size_t kMinBatchChunks = 8;
constexpr size_t kMinInserts = 200;
constexpr size_t kMinRefits = 5;
// Length of one serial and one batch slice of a round, in seconds.
constexpr double kSerialSlice = 0.45;
constexpr double kBatchSlice = 0.2;
// The write probe of the workloads whose engine takes no writes: a
// DynamicReducedIndex over the first kProbeRows corpus records, fresh each
// round, takes kProbeInserts drifted records and a Refit() after every
// kProbeRefitEvery of them.
constexpr size_t kProbeRows = 2000;
constexpr size_t kProbeInserts = 24;
constexpr size_t kProbeRefitEvery = 8;
constexpr size_t kTracedProbeRounds = 4;  // write probes of a traced run
// The cluster probe of the workloads whose engine does not cluster.
constexpr size_t kClusterSample = 256;    // rows
constexpr size_t kClusterColumns = 16;    // at most this many columns

// Layout of the held-out query rows of every workload.
// Accuracy rows, then the traced mode rows, then the serial region, then
// the batch region (Workload::batch_begin()).
constexpr size_t kModeBegin = kAccuracyQueries;
constexpr size_t kSerialBegin = kModeBegin + kModes * kModeQueries;

enum class Kind { kStatic, kDynamic, kLocal };

struct Workload {
  std::string name;
  Kind kind = Kind::kStatic;
  Dataset corpus;
  Dataset probe_corpus;  // the write probe's records (not dynamic_mixed)
  Matrix queries;  // unique held-out records of the corpus' population
  std::vector<int> query_labels;
  Matrix inserts;  // records of a drifted population, for the write path
  // Held-out rows reserved for one round's serial and batch passes. Every
  // round serves from a freshly built engine, so rounds reuse the rows.
  size_t serial_cap = 0;
  size_t batch_cap = 0;
  // With a result cache every query of a round must be new (else it is a
  // hit); without one the serial and batch passes cycle through their rows.
  bool cached = false;
  EngineOptions static_options;
  DynamicEngineOptions dynamic_options;
  LocalEngineOptions local_options;
  // dynamic_mixed: Zipf pool (the first rows of the serial region), the
  // inserts per round and the queries between two inserts.
  size_t zipf_pool = 0;
  size_t mixed_inserts = 0;
  size_t queries_per_insert = 0;

  size_t batch_begin() const { return kSerialBegin + serial_cap; }
  size_t held_out() const { return kSerialBegin + serial_cap + batch_cap; }

  const ReductionOptions& reduction() const {
    switch (kind) {
      case Kind::kStatic:
        return static_options.reduction;
      case Kind::kDynamic:
        return dynamic_options.reduction;
      case Kind::kLocal:
        return local_options.reduction;
    }
    return static_options.reduction;
  }
};

// ---------------------------------------------------------------- inputs

cohere::LatentFactorConfig LatentConfig(size_t n, size_t d, size_t concepts,
                                        uint64_t seed) {
  cohere::LatentFactorConfig config;
  config.num_records = n;
  config.num_attributes = d;
  config.num_concepts = concepts;
  // Equal-strength concepts: no single direction dominates, so the
  // automatic coherence cut keeps one dimension per concept on every seed.
  // Many well-separated classes make the corpus a fine mixture and the k=3
  // accuracy an average over many classes, both steady from seed to seed.
  config.concept_decay = 1.0;
  config.num_classes = 512;
  config.class_separation = 3.0;
  config.scale_min = 0.1;
  config.scale_max = 10.0;
  config.seed = seed;
  return config;
}

void SplitHeldOut(const Dataset& all, size_t n, Workload* w) {
  auto [head, tail] = all.Split(n);
  w->corpus = std::move(head);
  w->queries = std::move(tail.mutable_features());
  w->query_labels = tail.labels();
}

// A second latent-factor population with its own concept directions: the
// fitted axes reconstruct it badly, which is the drift the dynamic index
// watches for.
Matrix DriftedRecords(size_t count, size_t d, uint64_t seed) {
  return cohere::GenerateLatentFactor(
             LatentConfig(count, d, 8, seed ^ 0x5bd1e9955bd1e995ULL))
      .features();
}

// The write probe's corpus and records, for a workload whose engine takes
// no writes.
void AddWriteProbe(uint64_t seed, Workload* w) {
  w->probe_corpus =
      w->corpus.Split(std::min(kProbeRows, w->corpus.NumRecords())).first;
  w->inserts = DriftedRecords(kProbeInserts, w->corpus.NumAttributes(), seed);
}

Workload MakeStaticServe(uint64_t seed) {
  Workload w;
  w.name = "static_serve";
  w.kind = Kind::kStatic;
  w.cached = true;
  w.serial_cap = 8192;
  w.batch_cap = 4096;
  const size_t n = 50000;
  // About fifty records per class: the kd-tree's work per query, and with
  // it the latency, then varies little from seed to seed.
  cohere::LatentFactorConfig config =
      LatentConfig(n + w.held_out(), 64, 8, seed);
  config.num_classes = 1024;
  SplitHeldOut(cohere::GenerateLatentFactor(config), n, &w);
  AddWriteProbe(seed, &w);
  w.static_options.backend = cohere::IndexBackend::kKdTree;
  w.static_options.num_threads = kPoolThreads;
  w.static_options.cache_budget_bytes = size_t{16} << 20;
  return w;
}

Workload MakeFitWide(uint64_t seed) {
  Workload w;
  w.name = "fit_wide";
  w.kind = Kind::kStatic;
  w.serial_cap = 4000;
  w.batch_cap = 2048;
  const size_t n = 8000;
  // Arrhythmia-width records (three decades of attribute scale), then the
  // paper's noisy set B construction: studentize, and replace ten columns
  // by uniform noise whose variance dominates every signal eigenvalue.
  cohere::LatentFactorConfig config =
      LatentConfig(n + w.held_out(), 280, 10, seed);
  config.noise_stddev = 1.1;
  config.scale_max = 100.0;
  const Dataset noisy = cohere::CorruptWithUniformNoise(
      cohere::Studentize(cohere::GenerateLatentFactor(config)),
      /*num_columns=*/10, /*amplitude=*/14.0, seed + 1);
  SplitHeldOut(noisy, n, &w);
  AddWriteProbe(seed, &w);
  w.static_options.backend = cohere::IndexBackend::kLinearScan;
  // Covariance scaling keeps the noise columns' dominant variance, so the
  // eigenvalue order ranks noise first and the coherence order does not.
  // The automatic cut lands on 8-10 dims depending on the seed; keeping
  // the generator's 10 concepts fixes the query cost across seeds.
  w.static_options.reduction.scaling = cohere::PcaScaling::kCovariance;
  w.static_options.reduction.target_dim = 10;
  w.static_options.num_threads = kPoolThreads;
  return w;
}

Workload MakeDynamicMixed(uint64_t seed) {
  Workload w;
  w.name = "dynamic_mixed";
  w.kind = Kind::kDynamic;
  w.cached = true;
  w.zipf_pool = 2000;
  w.serial_cap = w.zipf_pool;
  w.batch_cap = 8192;
  w.mixed_inserts = 256;
  w.queries_per_insert = 64;
  const size_t n = 10000;
  SplitHeldOut(cohere::GenerateLatentFactor(
                   LatentConfig(n + w.held_out(), 64, 8, seed)),
               n, &w);
  w.inserts = DriftedRecords(w.mixed_inserts, 64, seed);
  // Small enough that entries of superseded snapshot versions must be
  // evicted within a round.
  w.dynamic_options.cache_budget_bytes = size_t{256} << 10;
  // At 10k rows the automatic cut sometimes keeps a ninth, noise dimension;
  // pinning the concept count keeps the scan width equal across seeds and
  // refits.
  w.dynamic_options.reduction.target_dim = 8;
  return w;
}

Workload MakeLocalMultiprobe(uint64_t seed) {
  Workload w;
  w.name = "local_multiprobe";
  w.kind = Kind::kLocal;
  w.serial_cap = 4000;
  w.batch_cap = 2048;
  const size_t per_population = 1000;
  const size_t populations = 4;
  const size_t extra = w.held_out() / populations + 1;
  cohere::MultiPopulationConfig config;
  for (size_t p = 0; p < populations; ++p) {
    cohere::LatentFactorConfig population =
        LatentConfig(per_population + extra, 48, 4, seed * 31 + p + 1);
    population.num_classes = 64;
    config.populations.push_back(population);
  }
  config.seed = seed;
  SplitHeldOut(cohere::GenerateMultiPopulation(config),
               per_population * populations, &w);
  AddWriteProbe(seed, &w);
  w.local_options.num_clusters = populations;
  w.local_options.probe_clusters = 2;
  // One dimension per population concept in every locality (the automatic
  // per-locality cut varies with the seed).
  w.local_options.reduction.target_dim = 4;
  w.local_options.seed = seed;
  return w;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "static_serve") return MakeStaticServe(seed);
  if (name == "fit_wide") return MakeFitWide(seed);
  if (name == "dynamic_mixed") return MakeDynamicMixed(seed);
  if (name == "local_multiprobe") return MakeLocalMultiprobe(seed);
  return std::nullopt;
}

// ------------------------------------------------------------ the engine

// One built facade of the workload's kind. Every query goes through the
// facade's own Query/QueryBatch.
class Served {
 public:
  static Status Build(const Workload& w, const Dataset& data, Served* out) {
    out->kind_ = w.kind;
    out->static_.reset();
    out->dynamic_.reset();
    out->local_.reset();
    switch (w.kind) {
      case Kind::kStatic: {
        auto built = ReducedSearchEngine::Build(data, w.static_options);
        if (!built.ok()) return built.status();
        out->static_.emplace(std::move(*built));
        break;
      }
      case Kind::kDynamic: {
        auto built = DynamicReducedIndex::Build(data, w.dynamic_options);
        if (!built.ok()) return built.status();
        out->dynamic_.emplace(std::move(*built));
        break;
      }
      case Kind::kLocal: {
        out->probes_ = w.local_options.probe_clusters;
        auto built = LocalReducedSearchEngine::Build(data, w.local_options);
        if (!built.ok()) return built.status();
        out->local_.emplace(std::move(*built));
        break;
      }
    }
    return Status::Ok();
  }

  /// False until a Build succeeds; nothing else may be called before.
  bool ready() const { return static_ || dynamic_ || local_; }

  std::vector<Neighbor> Query(const Vector& q) const {
    switch (kind_) {
      case Kind::kStatic:
        return static_->Query(q, kK);
      case Kind::kDynamic:
        return dynamic_->Query(q, kK);
      case Kind::kLocal:
        return local_->Query(q, kK);
    }
    return {};
  }

  std::vector<std::vector<Neighbor>> QueryBatch(const Matrix& qs) const {
    switch (kind_) {
      case Kind::kStatic:
        return static_->QueryBatch(qs, kK);
      case Kind::kDynamic:
        return dynamic_->QueryBatch(qs, kK);
      case Kind::kLocal:
        return local_->QueryBatch(qs, kK);
    }
    return {};
  }

  const cohere::ServingCore& serving() const {
    switch (kind_) {
      case Kind::kStatic:
        return static_->serving();
      case Kind::kDynamic:
        return dynamic_->serving();
      case Kind::kLocal:
        break;
    }
    return local_->serving();
  }

  DynamicReducedIndex* dynamic() { return dynamic_ ? &*dynamic_ : nullptr; }

  /// Brute-force answer from the snapshot serving right now.
  std::vector<Neighbor> Reference(const Vector& q) const {
    const std::shared_ptr<const EngineSnapshot> snapshot =
        serving().snapshot();
    return kind_ == Kind::kLocal
               ? ReferenceMultiShard(*snapshot, q, kK, probes_)
               : ReferenceSingleShard(*snapshot, q, kK);
  }

  /// Retained dimensions, summed over the shards.
  size_t KeptDims() const {
    size_t dims = 0;
    for (const SnapshotShard& shard : serving().snapshot()->shards) {
      dims += shard.pipeline.ReducedDims();
    }
    return dims;
  }

  size_t Rows() const { return serving().snapshot()->labels.size(); }
  std::string Scope() const { return serving().options().scope; }

 private:
  Kind kind_ = Kind::kStatic;
  size_t probes_ = 1;
  std::optional<ReducedSearchEngine> static_;
  std::optional<DynamicReducedIndex> dynamic_;
  std::optional<LocalReducedSearchEngine> local_;
};

// ------------------------------------------------------- checks and ledger

// Counts operations and failed operations. A non-OK Status or an answer
// that differs from the brute-force reference is one failed operation.
class Ledger {
 public:
  Ledger(uint64_t seed, bool corrupt_answer)
      : stream_(seed ^ 0xc0ffee1234567890ULL), corrupt_(corrupt_answer) {}

  void Attempt(uint64_t ops = 1) { attempted_ += ops; }

  void Fail(const std::string& what) {
    ++failed_;
    if (notes_.size() < 8) notes_.push_back("FAILED " + what);
  }

  bool Ok(const Status& status, const std::string& what) {
    if (status.ok()) return true;
    Fail(what + ": " + status.ToString());
    return false;
  }

  /// Seeded 1-in-kCheckEvery draw deciding whether the next answer is
  /// checked.
  bool Sample() { return SplitMix64(&stream_) % kCheckEvery == 0; }

  void Check(std::vector<Neighbor> got, const std::vector<Neighbor>& want,
             const std::string& what) {
    ++checks_;
    if (corrupt_ && !got.empty()) {
      got[0].distance = std::nextafter(
          got[0].distance, std::numeric_limits<double>::infinity());
      corrupt_ = false;
    }
    if (!SameAnswer(got, want)) Fail("answer differs from reference: " + what);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  uint64_t stream_;
  bool corrupt_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  std::vector<std::string> notes_;
};

// ----------------------------------------------------------- end-to-end

double Micros(double seconds) { return seconds * 1e6; }

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// One untimed full-size build, so that the pool and the code paths are
// warm before anything is timed.
void WarmUp(const Workload& w, Served* out, Ledger* ledger) {
  ledger->Attempt();
  ledger->Ok(Served::Build(w, w.corpus, out), "warm-up build");
}

// Builds the facade `reps` times; returns the build times, keeps the last
// engine.
std::vector<double> TimedSetups(const Workload& w, size_t reps, Served* out,
                                Ledger* ledger, Tracer* tracer = nullptr) {
  std::vector<double> seconds;
  for (size_t r = 0; r < reps; ++r) {
    ledger->Attempt();
    const Clock::time_point t0 = Clock::now();
    Status status;
    if (tracer != nullptr) {
      Span span(tracer, "core.build");
      status = Served::Build(w, w.corpus, out);
    } else {
      status = Served::Build(w, w.corpus, out);
    }
    seconds.push_back(SecondsSince(t0));
    ledger->Ok(status, "build");
  }
  return seconds;
}

// The paper's k=3 prediction accuracy over the fixed first held-out rows:
// the share of each query's three nearest records that carry its class.
// Doubles as the warm-up of the query path; its answers are checked too.
double AccuracyPass(const Served& s, const Workload& w, Ledger* ledger) {
  const std::shared_ptr<const EngineSnapshot> snapshot = s.serving().snapshot();
  size_t matches = 0;
  size_t slots = 0;
  for (size_t i = 0; i < kAccuracyQueries; ++i) {
    const Vector q = w.queries.Row(i);
    const std::vector<Neighbor> answer = s.Query(q);
    ledger->Attempt();
    if (i == 0 || ledger->Sample()) {
      ledger->Check(answer, s.Reference(q), "accuracy pass");
    }
    for (size_t j = 0; j < std::min(kAccuracyK, answer.size()); ++j) {
      ++slots;
      if (snapshot->labels[answer[j].index] == w.query_labels[i]) ++matches;
    }
  }
  return slots == 0 ? 0.0
                    : static_cast<double>(matches) / static_cast<double>(slots);
}

// Samples of the timed phases, and where the serial and batch passes of
// the current round resume.
struct Samples {
  std::vector<double> peak_mib;  // per round: peak resident set over inputs
  std::vector<double> setup_s;   // facade builds, one per round
  std::vector<double> query_s;   // serial query latencies
  std::vector<double> batch_s;   // seconds per block of kBatchRows
  std::vector<double> insert_s;
  std::vector<double> refit_s;
  std::vector<double> bytes_copied;  // per insert: n * (d + d') * 8
  size_t next_query = 0;
  size_t next_block = 0;
};

// One timed facade build.
void TimedSetup(const Workload& w, Served* s, Samples* out, Ledger* ledger) {
  ledger->Attempt();
  const Clock::time_point t0 = Clock::now();
  const Status status = Served::Build(w, w.corpus, s);
  out->setup_s.push_back(SecondsSince(t0));
  ledger->Ok(status, "build");
}

// One slice of serial closed-loop queries over the serial region, from
// where the round's pass stopped, until `stop` (at least one query). A
// cached workload stops early once the round has used every row.
void SerialSlice(const Served& s, const Workload& w, Clock::time_point stop,
                 Samples* out, Ledger* ledger) {
  do {
    if (w.cached && out->next_query >= w.serial_cap) break;
    const size_t i = out->next_query++;
    const Vector q = w.queries.Row(kSerialBegin + i % w.serial_cap);
    const Clock::time_point t0 = Clock::now();
    const std::vector<Neighbor> answer = s.Query(q);
    out->query_s.push_back(SecondsSince(t0));
    ledger->Attempt();
    if (i == 0 || ledger->Sample()) {
      ledger->Check(answer, s.Reference(q), "serial query");
    }
  } while (Clock::now() < stop);
}

// One slice of QueryBatch calls over blocks of kBatchRows rows of the batch
// region until `stop` (at least one block). A cached workload stops early
// once the round has used every row.
void BatchSlice(const Served& s, const Workload& w, Clock::time_point stop,
                Samples* out, Ledger* ledger, Tracer* tracer = nullptr) {
  const size_t d = w.queries.cols();
  const size_t blocks = w.batch_cap / kBatchRows;
  do {
    if (w.cached && out->next_block >= blocks) break;
    const size_t first =
        w.batch_begin() + (out->next_block++ % blocks) * kBatchRows;
    Matrix block(kBatchRows, d);
    for (size_t r = 0; r < kBatchRows; ++r) {
      std::copy(w.queries.RowPtr(first + r), w.queries.RowPtr(first + r) + d,
                block.RowPtr(r));
    }
    std::vector<std::vector<Neighbor>> answers;
    const Clock::time_point t0 = Clock::now();
    if (tracer != nullptr) {
      Span span(tracer, "core.batch");
      answers = s.QueryBatch(block);
    } else {
      answers = s.QueryBatch(block);
    }
    out->batch_s.push_back(SecondsSince(t0));
    ledger->Attempt(kBatchRows);
    if (answers.size() != kBatchRows) {
      ledger->Fail("QueryBatch returned the wrong number of rows");
      continue;
    }
    for (size_t r = 0; r < kBatchRows; ++r) {
      if (r == 0 || ledger->Sample()) {
        ledger->Check(answers[r], s.Reference(block.Row(r)), "batch row");
      }
    }
  } while (Clock::now() < stop);
}

// One Insert, timed, then the read-your-write check: the inserted record must come back as its own nearest neighbour at
// distance 0.
void TimedInsert(DynamicReducedIndex* index, const Vector& record,
                 Samples* out, Ledger* ledger, Tracer* tracer) {
  const size_t n = index->size();
  out->bytes_copied.push_back(static_cast<double>(
      n * (record.size() + index->pipeline().ReducedDims()) * sizeof(double)));
  ledger->Attempt();
  const Clock::time_point t0 = Clock::now();
  Status status;
  if (tracer != nullptr) {
    Span span(tracer, "core.insert");
    status = index->Insert(record);
  } else {
    status = index->Insert(record);
  }
  out->insert_s.push_back(SecondsSince(t0));
  if (!ledger->Ok(status, "insert")) return;
  ledger->Check(index->Query(record, 1), {{n, 0.0}}, "inserted record lookup");
}

// One Refit(), timed.
void TimedRefit(DynamicReducedIndex* index, Samples* out, Ledger* ledger,
                Tracer* tracer) {
  ledger->Attempt();
  const Clock::time_point t0 = Clock::now();
  Status status;
  if (tracer != nullptr) {
    Span span(tracer, "core.refit");
    status = index->Refit();
  } else {
    status = index->Refit();
  }
  out->refit_s.push_back(SecondsSince(t0));
  ledger->Ok(status, "refit");
}

// The write path of the workloads whose engine takes no writes: a fresh
// DynamicReducedIndex over the probe corpus takes the drifted records, with
// a Refit() after every kProbeRefitEvery of them.
void WriteProbe(const Workload& w, Samples* out, Ledger* ledger,
                Tracer* tracer) {
  DynamicEngineOptions options;
  options.reduction = w.reduction();
  ledger->Attempt();
  auto built = DynamicReducedIndex::Build(w.probe_corpus, options);
  if (!ledger->Ok(built.status(), "write-probe build")) return;
  for (size_t i = 0; i < w.inserts.rows(); ++i) {
    TimedInsert(&*built, w.inserts.Row(i), out, ledger, tracer);
    if ((i + 1) % kProbeRefitEvery == 0) {
      TimedRefit(&*built, out, ledger, tracer);
    }
  }
}

// Zipf(1) over the pool ranks, drawn from a seeded SplitMix64 stream.
class Zipf {
 public:
  Zipf(size_t n, uint64_t seed) : cdf_(n), state_(seed) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Next() {
    const double u =
        static_cast<double>(SplitMix64(&state_) >> 11) * 0x1.0p-53;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
  uint64_t state_;
};

// One dynamic_mixed round on a fresh index: Zipf-repeated queries with an
// Insert after every queries_per_insert - 1 of them, and a Refit whenever
// NeedsRefit() says so. The same seed gives the same operation sequence.
void MixedRound(const Workload& w, uint64_t seed, Served* s, Samples* out,
                Ledger* ledger, Tracer* tracer) {
  DynamicReducedIndex* index = s->dynamic();
  Zipf zipf(w.zipf_pool, seed ^ 0x2545f4914f6cdd1dULL);
  const size_t ops = w.mixed_inserts * w.queries_per_insert;
  size_t inserted = 0;
  for (size_t op = 0; op < ops; ++op) {
    if ((op + 1) % w.queries_per_insert == 0) {
      TimedInsert(index, w.inserts.Row(inserted++), out, ledger, tracer);
      if (index->NeedsRefit()) TimedRefit(index, out, ledger, tracer);
      continue;
    }
    const Vector q = w.queries.Row(kSerialBegin + zipf.Next());
    std::vector<Neighbor> answer;
    const Clock::time_point t0 = Clock::now();
    if (tracer != nullptr) {
      Span span(tracer, "core.mixed_query");
      answer = s->Query(q);
    } else {
      answer = s->Query(q);
    }
    out->query_s.push_back(SecondsSince(t0));
    ledger->Attempt();
    if (op == 0 || ledger->Sample()) {
      ledger->Check(answer, s->Reference(q), "mixed query");
    }
  }
}

void Emit(RunResult* r, const char* name, const char* unit, double value) {
  r->metrics.push_back({name, unit, value});
}

// Untraced run. After the warm-up and the accuracy pass, rounds run until
// --seconds are spent and every phase has its minimum sample. Every round
// starts with a timed build of a fresh engine (empty cache), then:
// static_serve, fit_wide, local_multiprobe: a serial slice, a batch slice
// and a write probe; dynamic_mixed: a batch slice and a mixed round. So
// every metric samples the whole run, not one stretch of a host whose speed
// drifts.
void RunEndToEnd(const Workload& w, const RunOptions& options,
                 double rss_base_mib, Served* s, Ledger* ledger,
                 RunResult* result) {
  WarmUp(w, s, ledger);
  if (!s->ready()) return;
  const double accuracy = AccuracyPass(*s, w, ledger);
  Samples samples;
  auto after = [](double seconds) {
    return Clock::now() + ToDuration(seconds);
  };
  const Clock::time_point start = Clock::now();
  auto more = [&] {
    return SecondsSince(start) < options.seconds ||
           samples.setup_s.size() < kMinSetups ||
           samples.query_s.size() < kMinSerialQueries ||
           samples.batch_s.size() < kMinBatchChunks ||
           samples.insert_s.size() < kMinInserts ||
           samples.refit_s.size() < kMinRefits;
  };
  while (more() && ledger->failed() == 0) {
    ResetPeakRss();
    TimedSetup(w, s, &samples, ledger);
    if (!s->ready()) return;
    samples.next_query = 0;
    samples.next_block = 0;
    if (w.kind == Kind::kDynamic) {
      BatchSlice(*s, w, after(kBatchSlice), &samples, ledger);
      MixedRound(w, options.seed, s, &samples, ledger, nullptr);
    } else {
      SerialSlice(*s, w, after(kSerialSlice), &samples, ledger);
      BatchSlice(*s, w, after(kBatchSlice), &samples, ledger);
      WriteProbe(w, &samples, ledger, nullptr);
    }
    samples.peak_mib.push_back(PeakRssMiB() - rss_base_mib);
  }
  const std::vector<double>& setups = samples.setup_s;
  const std::vector<double>& queries = samples.query_s;
  const std::vector<double>& inserts = samples.insert_s;
  const std::vector<double>& refits = samples.refit_s;
  double query_busy = 0.0;
  for (double q : queries) query_busy += q;
  double insert_busy = 0.0;
  for (double i : inserts) insert_busy += i;
  std::vector<double> batch_qps;
  for (double b : samples.batch_s) batch_qps.push_back(kBatchRows / b);

  Emit(result, "setup_s", "s", Median(setups));
  Emit(result, "query_p50_us", "us", Micros(Median(queries)));
  // The p99 of each window of kP99Window consecutive queries, median over
  // the windows: a tail read from all samples at once moves with the share
  // of the run the host spent in a slow spell.
  Emit(result, "query_p99_us", "us",
       Micros(WindowedQuantile(queries, kP99Window, 0.99)));
  Emit(result, "query_qps", "1/s",
       static_cast<double>(queries.size()) / query_busy);
  Emit(result, "batch_qps", "1/s", Median(batch_qps));
  Emit(result, "insert_p50_us", "us", Micros(Median(inserts)));
  // The mean, not a high percentile: about one insert in ten maps fresh
  // pages for its snapshot copy, and a percentile near that share jumps
  // between the two modes from run to run.
  Emit(result, "insert_mean_us", "us",
       Micros(insert_busy / static_cast<double>(inserts.size())));
  Emit(result, "refit_s", "s", Median(refits));
  Emit(result, "accuracy", "fraction", accuracy);
  Emit(result, "peak_rss_mb", "MiB", Median(samples.peak_mib));

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", accuracy);
  result->facts.emplace_back("accuracy", buf);
  result->facts.emplace_back("setups", std::to_string(setups.size()));
  result->facts.emplace_back("queries", std::to_string(queries.size()));
  result->facts.emplace_back("batch_blocks",
                             std::to_string(samples.batch_s.size()));
  result->facts.emplace_back("inserts", std::to_string(inserts.size()));
  result->facts.emplace_back("refits", std::to_string(refits.size()));
}

// ------------------------------------------------------------ traced run

std::unique_ptr<KnnIndex> BuildBackend(
    const Workload& w, std::shared_ptr<const BlockedMatrix> rows,
    const cohere::Metric* metric) {
  if (w.kind == Kind::kStatic &&
      w.static_options.backend == cohere::IndexBackend::kKdTree) {
    return std::make_unique<cohere::KdTreeIndex>(
        std::move(rows), metric, w.static_options.kd_leaf_size);
  }
  return std::make_unique<cohere::LinearScanIndex>(std::move(rows), metric);
}

// Fits, projects and indexes one shard's records as separate calls into
// the reduction, linalg and index layers, each under its own span.
void ReplayShard(const Workload& w, const Dataset& data,
                 const ReductionOptions& reduction,
                 const cohere::Metric* metric, Ledger* ledger, Tracer* t) {
  ReductionPipeline pipeline;
  {
    Span span(t, "reduction.fit");
    auto fitted = ReductionPipeline::Fit(data, reduction);
    ledger->Attempt();
    if (!ledger->Ok(fitted.status(), "replayed fit")) return;
    pipeline = std::move(*fitted);
  }
  Matrix reduced;
  {
    Span span(t, "reduction.transform");
    if (w.kind == Kind::kDynamic) {
      // DynamicReducedIndex::Build projects record by record.
      reduced = Matrix(data.NumRecords(), pipeline.ReducedDims());
      for (size_t i = 0; i < data.NumRecords(); ++i) {
        reduced.SetRow(i, pipeline.TransformPoint(data.Record(i)));
      }
    } else {
      reduced = pipeline.TransformDataset(data).features();
    }
  }
  std::shared_ptr<const BlockedMatrix> rows;
  {
    Span span(t, "linalg.blocked_rows");
    rows = std::make_shared<const BlockedMatrix>(reduced);
  }
  std::unique_ptr<KnnIndex> index;
  {
    Span span(t, "index.build");
    index = BuildBackend(w, std::move(rows), metric);
  }
}

cohere::ProjectedClusteringOptions ClusterOptions(const Workload& w) {
  cohere::ProjectedClusteringOptions options;
  options.num_clusters = w.local_options.num_clusters;
  options.subspace_dim = std::min(w.local_options.cluster_subspace_dim,
                                  w.corpus.NumAttributes());
  options.seed = w.local_options.seed;
  return options;
}

// Replays one facade Build as the layer calls it is made of. Returns the
// projected clustering's iteration count (local_multiprobe), else 0.
int ReplaySetup(const Workload& w, Ledger* ledger, Tracer* t) {
  const std::unique_ptr<cohere::Metric> metric =
      cohere::MakeMetric(cohere::MetricKind::kEuclidean);
  Span root(t, "bench.setup_replay");
  if (w.kind != Kind::kLocal) {
    ReplayShard(w, w.corpus, w.reduction(), metric.get(), ledger, t);
    return 0;
  }
  const Matrix& x = w.corpus.features();
  Matrix studentized;
  {
    Span span(t, "data.studentize");
    studentized = cohere::ColumnAffineTransform::FitZScore(x).ApplyToRows(x);
  }
  cohere::ProjectedClusteringResult clusters;
  {
    Span span(t, "cluster.projected_fit");
    auto result = cohere::RunProjectedClustering(studentized, ClusterOptions(w));
    ledger->Attempt();
    if (!ledger->Ok(result.status(), "replayed clustering")) return 0;
    clusters = std::move(*result);
  }
  for (const cohere::ProjectedCluster& cluster : clusters.clusters) {
    ReplayShard(w, w.corpus.SelectRecords(cluster.members), w.reduction(),
                metric.get(), ledger, t);
  }
  return clusters.iterations;
}

// The three costly phases of ReductionPipeline::Fit, called one by one on
// the whole corpus: the second-moment matrix, its eigensolve, and the
// coherence analysis of the fitted axes.
void FitPhases(const Workload& w, const cohere::PcaModel& model,
               Ledger* ledger, Tracer* t) {
  const Matrix& x = w.corpus.features();
  Span root(t, "bench.fit_phases");
  Matrix moment;
  {
    Span span(t, "stats.correlation");
    moment = w.reduction().scaling == cohere::PcaScaling::kCorrelation
                 ? cohere::CorrelationMatrix(x)
                 : cohere::CovarianceMatrix(x);
  }
  {
    Span span(t, "linalg.eigen");
    auto eigen = cohere::SymmetricEigen(moment);
    ledger->Attempt();
    ledger->Ok(eigen.status(), "eigensolve");
  }
  {
    Span span(t, "reduction.coherence");
    const cohere::CoherenceAnalysis coherence =
        cohere::ComputeCoherence(model, x);
    if (coherence.dims() != model.dims()) ledger->Fail("coherence dims");
  }
}

// Replays one query as the layer calls the serving core makes for it.
void ReplayQuery(const Workload& w, const EngineSnapshot& snapshot,
                 const Vector& q, Tracer* t) {
  Span root(t, "bench.query_replay");
  if (w.kind != Kind::kLocal) {
    const SnapshotShard& shard = snapshot.shards[0];
    Vector reduced;
    {
      Span span(t, "reduction.project");
      reduced = shard.pipeline.TransformPoint(q);
    }
    std::vector<Neighbor> found;
    {
      Span span(t, "index.query");
      found = shard.index->Query(reduced, kK);
    }
    return;
  }
  Vector studentized;
  {
    Span span(t, "data.studentize");
    studentized = snapshot.studentizer.Apply(q);
  }
  std::vector<size_t> probes;
  {
    Span span(t, "cluster.route");
    probes = RouteProbes(snapshot, studentized, w.local_options.probe_clusters);
  }
  std::vector<std::vector<Neighbor>> found(probes.size());
  for (size_t p = 0; p < probes.size(); ++p) {
    const SnapshotShard& shard = snapshot.shards[probes[p]];
    Vector reduced;
    {
      Span span(t, "reduction.project");
      reduced = shard.pipeline.TransformPoint(q);
    }
    Span span(t, "index.query");
    found[p] = shard.index->Query(reduced, kK);
  }
  Span span(t, "core.rerank");
  std::vector<Neighbor> merged;
  for (size_t p = 0; p < probes.size(); ++p) {
    const SnapshotShard& shard = snapshot.shards[probes[p]];
    for (const Neighbor& nb : found[p]) {
      const size_t row = shard.members[nb.index];
      merged.push_back({row, snapshot.metric->Distance(
                                 studentized,
                                 snapshot.studentized_records.Row(row))});
    }
  }
  merged = BestK(std::move(merged), kK);
}

struct ModeSamples {
  std::vector<double> plain;        // seconds, registry on
  std::vector<double> metrics_off;  // MetricsRegistry::SetEnabled(false)
  std::vector<double> explain;      // with an EXPLAIN profile
};

// New queries cycle through five modes, so that slow drift of the host
// falls on every mode alike: plain; traced (the facade call under
// core.query); the replay of the query's layer calls (on a query of its
// own, so that neither it nor the facade call runs on rows the other just
// pulled into the CPU caches); registry off; EXPLAIN on.
ModeSamples ModePass(const Served& s, const Workload& w, Ledger* ledger,
                     Tracer* t) {
  ModeSamples out;
  for (size_t i = 0; i < kModes * kModeQueries; ++i) {
    const Vector q = w.queries.Row(kModeBegin + i);
    std::vector<Neighbor> answer;
    cohere::obs::QueryProfile profile;
    const Clock::time_point t0 = Clock::now();
    switch (i % kModes) {
      case 0:
        answer = s.Query(q);
        out.plain.push_back(SecondsSince(t0));
        break;
      case 1: {
        Span span(t, "core.query");
        answer = s.Query(q);
        break;
      }
      case 2:
        ReplayQuery(w, *s.serving().snapshot(), q, t);
        continue;
      case 3:
        cohere::obs::MetricsRegistry::SetEnabled(false);
        answer = s.Query(q);
        out.metrics_off.push_back(SecondsSince(t0));
        cohere::obs::MetricsRegistry::SetEnabled(true);
        break;
      default:
        answer = s.serving().Query(q, kK, KnnIndex::kNoSkip, nullptr,
                                   cohere::QueryLimits{}, &profile);
        out.explain.push_back(SecondsSince(t0));
        break;
    }
    ledger->Attempt();
    if (i == 0 || ledger->Sample()) {
      ledger->Check(answer, s.Reference(q), "traced-pass query");
    }
  }
  return out;
}

// The dispatched L2 block kernel over the first shard's reduced rows, one
// call per projected query; returns nanoseconds per row (median).
double SimdProbe(const Served& s, const Workload& w, Tracer* t) {
  const std::shared_ptr<const EngineSnapshot> snapshot = s.serving().snapshot();
  const SnapshotShard& shard = snapshot->shards[0];
  const BlockedMatrix& rows = *shard.rows;
  const cohere::simd::KernelTable& kernels =
      cohere::simd::KernelsFor(cohere::simd::ActiveLevel());
  std::vector<double> out(rows.rows());
  for (size_t i = 0; i < kSimdCalls; ++i) {
    const Vector q = shard.pipeline.TransformPoint(w.queries.Row(kModeBegin + i));
    Span span(t, "simd.l2_block");
    kernels.l2_block(q.data(), rows.data(), rows.rows(), rows.cols(),
                     out.data());
  }
  return Median(t->Durations("simd.l2_block")) * 1e9 /
         static_cast<double>(rows.rows());
}

// The cluster layer on the workloads whose engine does not cluster, so that
// a traced run of every workload reports every per-layer metric: projected
// clustering of a kClusterSample x kClusterColumns slice of the corpus with
// the local engine's default options, then routing of held-out queries.
// Returns the iterations.
int ClusterProbe(const Workload& w, Ledger* ledger, Tracer* t) {
  Span root(t, "bench.cluster_probe");
  const size_t rows = std::min(kClusterSample, w.corpus.NumRecords());
  const size_t cols = std::min(kClusterColumns, w.corpus.NumAttributes());
  Matrix sample(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    std::copy(w.corpus.features().RowPtr(i),
              w.corpus.features().RowPtr(i) + cols, sample.RowPtr(i));
  }
  cohere::ColumnAffineTransform z;
  Matrix studentized;
  {
    Span span(t, "data.studentize");
    z = cohere::ColumnAffineTransform::FitZScore(sample);
    studentized = z.ApplyToRows(sample);
  }
  cohere::ProjectedClusteringResult clusters;
  {
    Span span(t, "cluster.projected_fit");
    auto result = cohere::RunProjectedClustering(studentized, ClusterOptions(w));
    ledger->Attempt();
    if (!ledger->Ok(result.status(), "probe clustering")) return 0;
    clusters = std::move(*result);
  }
  for (size_t i = 0; i < kRouteQueries; ++i) {
    Vector q;
    {
      Span span(t, "data.studentize");
      const double* row = w.queries.RowPtr(kModeBegin + i);
      q = z.Apply(Vector(std::vector<double>(row, row + cols)));
    }
    Span span(t, "cluster.route");
    if (cohere::NearestProjectedCluster(clusters.clusters, q) >=
        clusters.clusters.size()) {
      ledger->Fail("route out of range");
    }
  }
  return clusters.iterations;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void RunTraced(const Workload& w, const RunOptions& options, Served* s,
               Ledger* ledger, RunResult* result) {
  Tracer t;
  // Setup: untraced builds, traced builds, then the replays.
  WarmUp(w, s, ledger);
  const std::vector<double> untraced_setups =
      TimedSetups(w, kSetupReps, s, ledger);
  TimedSetups(w, kSetupReps, s, ledger, &t);
  if (!s->ready()) return;
  int iterations = 0;
  for (size_t r = 0; r < kSetupReps; ++r) {
    iterations = ReplaySetup(w, ledger, &t);
  }
  const Clock::time_point fit_start = Clock::now();
  auto global = ReductionPipeline::Fit(w.corpus, w.reduction());
  const double global_fit_s = SecondsSince(fit_start);
  ledger->Attempt();
  if (ledger->Ok(global.status(), "whole-corpus fit")) {
    for (size_t r = 0; r < kSetupReps; ++r) {
      FitPhases(w, global->model(), ledger, &t);
    }
  }

  // The fixed pass: deterministic work counts (and the accuracy).
  const std::string scope = s->Scope();
  const size_t rows = s->Rows();
  double accuracy = 0.0;
  double dist_evals = 0.0, nodes = 0.0, refined = 0.0;
  double hits = 0.0, misses = 0.0, evictions = 0.0;
  {
    CounterDelta counters({scope + ".distance_evaluations",
                           scope + ".nodes_visited",
                           scope + ".candidates_refined", "cache.hits",
                           "cache.misses", "cache.evictions"});
    accuracy = AccuracyPass(*s, w, ledger);
    dist_evals = counters.Delta(scope + ".distance_evaluations");
    nodes = counters.Delta(scope + ".nodes_visited");
    refined = counters.Delta(scope + ".candidates_refined");
    hits = counters.Delta("cache.hits");
    misses = counters.Delta("cache.misses");
    evictions = counters.Delta("cache.evictions");
  }
  const double queries = static_cast<double>(kAccuracyQueries);

  const ModeSamples modes = ModePass(*s, w, ledger, &t);
  const double ns_per_row = SimdProbe(*s, w, &t);
  if (w.kind != Kind::kLocal) iterations = ClusterProbe(w, ledger, &t);
  Samples writes;
  for (size_t c = 0; c < kMinBatchChunks; ++c) {
    BatchSlice(*s, w, Clock::now(), &writes, ledger, &t);
  }

  double refits = 0.0;
  if (w.kind == Kind::kDynamic) {
    // One mixed round on a fresh index; its cache and refit counts replace
    // those of the fixed pass, which has no repeats and no writes.
    ledger->Attempt();
    if (!ledger->Ok(Served::Build(w, w.corpus, s), "round build")) return;
    CounterDelta counters({"cache.hits", "cache.misses", "cache.evictions",
                           "dynamic_index.refits"});
    MixedRound(w, options.seed, s, &writes, ledger, &t);
    hits = counters.Delta("cache.hits");
    misses = counters.Delta("cache.misses");
    evictions = counters.Delta("cache.evictions");
    refits = counters.Delta("dynamic_index.refits");
  } else {
    CounterDelta counters({"dynamic_index.refits"});
    for (size_t r = 0; r < kTracedProbeRounds; ++r) {
      WriteProbe(w, &writes, ledger, &t);
    }
    refits = counters.Delta("dynamic_index.refits");
  }

  // Per-layer times from the spans.
  auto median_of = [&t](const char* name) { return Median(t.Durations(name)); };
  auto per_replay = [&t](const char* parent, const char* child) {
    return Median(t.ChildSums(parent, child));
  };
  const double setup_s = Median(untraced_setups);
  const double traced_setup_s = median_of("core.build");
  const double attributed_setup_s = Median(t.ChildSums("bench.setup_replay"));
  const double fit_phases_s = Median(t.ChildSums("bench.fit_phases"));
  const double plain_us = Micros(Median(modes.plain));
  const double traced_us = Micros(median_of("core.query"));
  const double attributed_query_us =
      Micros(Median(t.ChildSums("bench.query_replay")));

  Emit(result, "stats.correlation_s", "s", median_of("stats.correlation"));
  Emit(result, "linalg.eigen_s", "s", median_of("linalg.eigen"));
  Emit(result, "reduction.coherence_s", "s", median_of("reduction.coherence"));
  Emit(result, "reduction.fit_s", "s",
       per_replay("bench.setup_replay", "reduction.fit"));
  Emit(result, "reduction.transform_s", "s",
       per_replay("bench.setup_replay", "reduction.transform"));
  Emit(result, "reduction.project_us", "us",
       Micros(per_replay("bench.query_replay", "reduction.project")));
  Emit(result, "reduction.kept_dims", "count",
       static_cast<double>(s->KeptDims()));
  Emit(result, "index.build_s", "s",
       per_replay("bench.setup_replay", "index.build"));
  Emit(result, "index.query_us", "us",
       Micros(per_replay("bench.query_replay", "index.query")));
  Emit(result, "index.dist_evals_per_query", "count", dist_evals / queries);
  Emit(result, "index.nodes_per_query", "count", nodes / queries);
  Emit(result, "index.pruned_frac", "fraction",
       1.0 - Ratio(dist_evals, static_cast<double>(rows) * queries));
  Emit(result, "simd.l2_block_ns_per_row", "ns", ns_per_row);
  Emit(result, "cache.hit_ratio", "fraction", Ratio(hits, hits + misses));
  Emit(result, "cache.evictions", "count", evictions);
  Emit(result, "core.query_us", "us", traced_us);
  Emit(result, "core.residual_us", "us", traced_us - attributed_query_us);
  Emit(result, "core.batch_us_per_row", "us",
       Micros(median_of("core.batch")) / kBatchRows);
  Emit(result, "core.insert_us", "us", Micros(median_of("core.insert")));
  Emit(result, "core.insert_bytes_copied", "bytes", Median(writes.bytes_copied));
  Emit(result, "core.refits", "count", refits);
  Emit(result, "core.rerank_per_query", "count", refined / queries);
  Emit(result, "cluster.projected_fit_s", "s",
       median_of("cluster.projected_fit"));
  Emit(result, "cluster.iterations", "count", iterations);
  Emit(result, "cluster.route_us", "us", Micros(median_of("cluster.route")));
  Emit(result, "obs.metrics_tax_us", "us",
       plain_us - Micros(Median(modes.metrics_off)));
  Emit(result, "obs.explain_tax_us", "us",
       Micros(Median(modes.explain)) - plain_us);
  Emit(result, "trace.setup_unattributed_s", "s",
       setup_s - attributed_setup_s);
  Emit(result, "trace.query_unattributed_us", "us",
       plain_us - attributed_query_us);
  Emit(result, "trace.overhead_setup_s", "s", traced_setup_s - setup_s);
  Emit(result, "trace.overhead_query_us", "us", traced_us - plain_us);
  const std::map<std::string, double> self = t.SelfSecondsByLayer();
  for (const char* layer : {"bench", "cluster", "core", "data", "index",
                            "linalg", "reduction", "simd", "stats"}) {
    const auto it = self.find(layer);
    Emit(result, (std::string("self.") + layer + "_s").c_str(), "s",
         it == self.end() ? 0.0 : it->second);
  }

  // The attribution report: stderr, and "otherData" of the trace file.
  std::vector<std::string> report;
  char line[256];
  std::snprintf(line, sizeof(line), "trace report: workload %s, seed %llu",
                w.name.c_str(), static_cast<unsigned long long>(options.seed));
  report.push_back(line);
  std::string selfs = "self time by layer (s):";
  for (const auto& [layer, seconds] : self) {
    std::snprintf(line, sizeof(line), " %s %.6f", layer.c_str(), seconds);
    selfs += line;
  }
  report.push_back(selfs);
  std::snprintf(line, sizeof(line),
                "setup: end-to-end %.6f s (untraced median), attributed to "
                "replayed layer calls %.6f s, unattributed %.6f s",
                setup_s, attributed_setup_s, setup_s - attributed_setup_s);
  report.push_back(line);
  std::snprintf(line, sizeof(line),
                "fit: whole-corpus ReductionPipeline::Fit %.6f s, attributed "
                "to moment+eigen+coherence %.6f s, unattributed %.6f s",
                global_fit_s, fit_phases_s, global_fit_s - fit_phases_s);
  report.push_back(line);
  std::snprintf(line, sizeof(line),
                "query: end-to-end p50 %.3f us (untraced), attributed to "
                "replayed layer calls %.3f us, unattributed %.3f us",
                plain_us, attributed_query_us, plain_us - attributed_query_us);
  report.push_back(line);
  std::snprintf(line, sizeof(line),
                "tracing overhead: setup %.6f s traced vs %.6f s untraced; "
                "query p50 %.3f us traced vs %.3f us untraced",
                traced_setup_s, setup_s, traced_us, plain_us);
  report.push_back(line);
  std::snprintf(line, sizeof(line), "spans recorded: %zu", t.spans().size());
  report.push_back(line);
  if (!options.trace_path.empty() &&
      !t.WriteChromeJson(options.trace_path, report)) {
    ledger->Fail("cannot write trace file " + options.trace_path);
  }
  for (std::string& r : report) result->notes.push_back(std::move(r));

  std::snprintf(line, sizeof(line), "%.17g", accuracy);
  result->facts.emplace_back("accuracy", line);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "static_serve", "fit_wide", "dynamic_mixed", "local_multiprobe"};
  return names;
}

bool RunWorkload(const RunOptions& options, RunResult* result) {
  std::optional<Workload> w = MakeWorkload(options.workload, options.seed);
  if (!w) return false;
  Ledger ledger(options.seed, options.corrupt_answer);
  Served served;
  // peak_rss_mb is the engine's: the growth of the resident set over the
  // generated inputs, with the generators' transient copies left out, and
  // the peak reset again at the start of every round.
  const bool rss_reset = ResetPeakRss();
  const double rss_base_mib = RssMiB();
  result->facts.emplace_back("peak_rss_reset", rss_reset ? "true" : "false");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", rss_base_mib);
  result->facts.emplace_back("inputs_rss_mib", buf);
  result->facts.emplace_back("corpus_rows",
                             std::to_string(w->corpus.NumRecords()));
  result->facts.emplace_back("corpus_dims",
                             std::to_string(w->corpus.NumAttributes()));
  result->facts.emplace_back("corpus_fingerprint",
                             "\"" + Fingerprint(w->corpus.features()) + "\"");
  result->facts.emplace_back("queries_fingerprint",
                             "\"" + Fingerprint(w->queries) + "\"");
  result->facts.emplace_back("inserts_fingerprint",
                             "\"" + Fingerprint(w->inserts) + "\"");
  if (options.trace) {
    RunTraced(*w, options, &served, &ledger, result);
  } else {
    RunEndToEnd(*w, options, rss_base_mib, &served, &ledger, result);
  }
  if (served.ready()) {
    result->facts.emplace_back("kept_dims",
                               std::to_string(served.KeptDims()));
  }
  result->facts.emplace_back("checks", std::to_string(ledger.checks()));
  result->attempted = ledger.attempted();
  result->failed = ledger.failed();
  result->notes.insert(result->notes.begin(), ledger.notes().begin(),
                       ledger.notes().end());
  return true;
}

}  // namespace perfbench
