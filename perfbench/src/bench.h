// The benchmark's model of a run: closed-loop clients calling the public
// Engine/Collection API, the timed wrappers around each call (which also
// record the traced run's per-layer spans), and the interface each workload
// implements.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util.h"

namespace perfbench {

enum class Kind { kQuery, kFetch, kInsert, kUpdate, kDelete };
constexpr int kKinds = 5;

/// Per-layer sums gathered by the traced run around the calls into each
/// layer (spans from the benchmark's side; QueryProfile for query phases).
struct TraceAcc {
  double parse_us = 0, validate_us = 0, insert_tokens_us = 0;
  uint64_t inserts = 0;
  double update_text_us = 0;
  uint64_t update_texts = 0;
  double insert_subtree_us = 0;
  uint64_t insert_subtrees = 0;
  double delete_subtree_us = 0;
  uint64_t delete_subtrees = 0;
  double delete_doc_us = 0;
  uint64_t delete_docs = 0;

  uint64_t queries = 0, cache_hits = 0;
  double plan_us = 0, probe_us = 0, recheck_us = 0, merge_us = 0,
         eval_us = 0, outside_us = 0, probe_wait_us = 0;
  uint64_t postings = 0, anchors = 0, results = 0, records_fetched = 0,
           docs_evaluated = 0, scan_events = 0, peak_live = 0;
  /// Results and candidate docs of the queries whose plan had a doc list.
  uint64_t doc_plan_results = 0, candidate_docs = 0;
  /// Queries whose profile `total` exceeded the wall time measured around
  /// the same Query call (must stay 0).
  uint64_t profile_over_wall = 0;

  /// Bytes of XML handed to write calls (documents, fragments, new text).
  uint64_t xml_bytes = 0;

  void Add(const TraceAcc& o);
};

class Driver;

/// One closed-loop client: its own generator, latency samples and counts.
/// Only its own thread touches it while the window runs.
struct Client {
  Client(int id, uint64_t seed) : id(id), rng(seed) {}
  int id;
  Rng rng;
  Driver* driver = nullptr;
  xdb::Collection* coll = nullptr;
  /// False outside the measured window: calls still count as attempted but
  /// leave no latency sample and trigger no checkpoint.
  bool in_window = false;
  /// One completed operation: when it returned and how long it took.
  struct Sample {
    double end_us;
    double ms;
  };
  std::vector<Sample> samples[kKinds];
  uint64_t attempted = 0, failed = 0, writes = 0, updates = 0;
  TraceAcc tr;
  /// Oracle findings (first few are kept verbatim).
  uint64_t check_failures = 0;
  std::vector<std::string> check_messages;

  void CheckFailed(const std::string& what);
};

/// The workload-specific part of a run. Models live inside the workload,
/// one per client, so the window needs no locks: each client writes only the
/// documents it owns.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Builds the initial corpus in memory (not timed), dealing its documents
  /// out to `clients` owners.
  virtual void Generate(uint64_t seed, int clients) = 0;
  /// Schema, collection and index DDL, bulk load (timed as set-up).
  virtual xdb::Status Setup(xdb::Engine* engine) = 0;
  virtual xdb::Collection* collection() const = 0;
  /// Reattaches to the collection of a reopened engine.
  virtual xdb::Status Attach(xdb::Engine* engine) = 0;
  /// One closed-loop operation for client c.
  virtual void RunOne(Client& c) = 0;
  /// The fixed, seeded batch of writes between the last checkpoint and the
  /// unclean stop, run by client c on its own documents.
  virtual void RunRecoveryBatch(Client& c) = 0;
  /// Runs the query set once and compares every answer with the model;
  /// also checks DocCount. Call only at quiescent points.
  virtual void CheckQueries(Client& c) = 0;
  /// Fetches every live document and compares it with the model's text.
  virtual void CheckTexts(Client& c) = 0;
  virtual uint64_t LiveDocs() const = 0;
  virtual uint64_t LiveTextBytes() const = 0;
  /// Writes between two periodic checkpoints.
  virtual uint64_t checkpoint_every() const = 0;
  /// Oracle self-test hook: plants one wrong model entry (fault 0 changes
  /// one indexed value, fault 1 drops one document from the model).
  virtual void PlantFault(int fault) = 0;
};

/// Checks one query answer: results in document order without duplicates,
/// and the identities `got` equal to `want` as multisets. Failures are
/// recorded on c and named by `what`.
void CheckAnswer(Client& c, const std::string& what,
                 const xdb::NodeSequence& nodes, std::vector<Identity> got,
                 std::vector<Identity> want);

std::unique_ptr<Workload> MakeCatalogWorkload(bool ingest);
std::unique_ptr<Workload> MakeDeepWorkload();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

/// Runs the engine calls for the clients: timing, failure accounting, the
/// traced per-layer split and the write-count checkpoint trigger.
class Driver {
 public:
  Driver(xdb::Engine* engine, bool trace) : engine_(engine), trace_(trace) {}

  void set_collection(xdb::Collection* coll) { coll_ = coll; }
  void set_checkpoint_every(uint64_t n) { checkpoint_every_ = n; }

  xdb::Result<xdb::QueryResult> Query(Client& c, const std::string& text,
                                      bool want_values);
  xdb::Result<std::string> Fetch(Client& c, uint64_t doc_id);
  xdb::Result<uint64_t> Insert(Client& c, const std::string& xml);
  xdb::Status UpdateText(Client& c, uint64_t doc_id,
                         const std::string& text_node_id,
                         const std::string& text);
  xdb::Result<std::string> InsertSubtree(Client& c, uint64_t doc_id,
                                         const std::string& parent_id,
                                         const std::string& fragment);
  xdb::Status DeleteSubtree(Client& c, uint64_t doc_id,
                            const std::string& node_id);
  xdb::Status DeleteDoc(Client& c, uint64_t doc_id);

  /// Checkpoint timings (ms) and pages written back by each.
  std::vector<double> checkpoint_ms() const;
  double checkpoint_pages_mean() const;
  /// WAL bytes appended between ResetWalBase() and FinishWalGrowth(),
  /// summed across the checkpoints that truncate the log in between. Writes
  /// racing a checkpoint's truncation can be missed, so this is a slight
  /// undercount under concurrent writers.
  uint64_t wal_growth() const {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    return wal_growth_;
  }
  void ResetWalBase();
  void FinishWalGrowth();
  bool checkpoint_failed() const { return checkpoint_failed_.load(); }
  /// Engine::Checkpoint, timed; one at a time.
  xdb::Status TimedCheckpoint();

 private:
  void Record(Client& c, Kind kind, double start_us, const xdb::Status& st);
  void AfterWrite(Client& c);
  uint64_t Writebacks() const;

  xdb::Engine* engine_;
  xdb::Collection* coll_ = nullptr;
  const bool trace_;
  uint64_t checkpoint_every_ = 0;
  std::atomic<uint64_t> window_writes_{0};
  std::atomic<bool> checkpoint_failed_{false};
  mutable std::mutex ckpt_mu_;
  std::vector<double> checkpoint_ms_;     // guarded by ckpt_mu_
  std::vector<double> checkpoint_pages_;  // guarded by ckpt_mu_
  uint64_t wal_growth_ = 0;               // guarded by ckpt_mu_
  uint64_t wal_mark_ = 0;                 // guarded by ckpt_mu_
};

/// The whole run: set-up, window, checks, recovery; prints the result line.
int RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
