#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "schema/validator_vm.h"
#include "xml/token_stream.h"

namespace perfbench {

namespace fs = std::filesystem;
using xdb::Result;
using xdb::Status;

void TraceAcc::Add(const TraceAcc& o) {
  parse_us += o.parse_us;
  validate_us += o.validate_us;
  insert_tokens_us += o.insert_tokens_us;
  inserts += o.inserts;
  update_text_us += o.update_text_us;
  update_texts += o.update_texts;
  insert_subtree_us += o.insert_subtree_us;
  insert_subtrees += o.insert_subtrees;
  delete_subtree_us += o.delete_subtree_us;
  delete_subtrees += o.delete_subtrees;
  delete_doc_us += o.delete_doc_us;
  delete_docs += o.delete_docs;
  queries += o.queries;
  cache_hits += o.cache_hits;
  plan_us += o.plan_us;
  probe_us += o.probe_us;
  recheck_us += o.recheck_us;
  merge_us += o.merge_us;
  eval_us += o.eval_us;
  outside_us += o.outside_us;
  probe_wait_us += o.probe_wait_us;
  postings += o.postings;
  anchors += o.anchors;
  results += o.results;
  records_fetched += o.records_fetched;
  docs_evaluated += o.docs_evaluated;
  scan_events += o.scan_events;
  peak_live += o.peak_live;
  doc_plan_results += o.doc_plan_results;
  candidate_docs += o.candidate_docs;
  profile_over_wall += o.profile_over_wall;
  xml_bytes += o.xml_bytes;
}

void Client::CheckFailed(const std::string& what) {
  check_failures++;
  if (check_messages.size() < 5) check_messages.push_back(what);
}

void CheckAnswer(Client& c, const std::string& what,
                 const xdb::NodeSequence& nodes, std::vector<Identity> got,
                 std::vector<Identity> want) {
  for (size_t i = 1; i < nodes.size(); i++) {
    if (!(nodes[i - 1] < nodes[i])) {
      c.CheckFailed(what + ": results out of document order or duplicated");
      break;
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want)
    c.CheckFailed(what + ": " + std::to_string(got.size()) +
                  " results differ from the model's " +
                  std::to_string(want.size()));
}

// ---------------------------------------------------------------------------
// Timed calls. The untraced run times each public call whole. The traced run
// also splits an insert into the three calls InsertDocument makes, times the
// other write calls as their layer's span, and reads each query's profile.

void Driver::Record(Client& c, Kind kind, double start_us, const Status& st) {
  const double end = NowUs();
  c.attempted++;
  if (!st.ok()) {
    c.failed++;
    static const char* kNames[kKinds] = {"query", "fetch", "insert", "update",
                                         "delete"};
    std::fprintf(stderr, "client %d: %s failed: %s\n", c.id,
                 kNames[static_cast<int>(kind)], st.ToString().c_str());
    return;
  }
  if (c.in_window)
    c.samples[static_cast<int>(kind)].push_back({end, (end - start_us) / 1000.0});
}

void Driver::AfterWrite(Client& c) {
  c.writes++;
  if (!c.in_window || checkpoint_every_ == 0) return;
  if ((window_writes_.fetch_add(1) + 1) % checkpoint_every_ == 0)
    (void)TimedCheckpoint();
}

Result<xdb::QueryResult> Driver::Query(Client& c, const std::string& text,
                                       bool want_values) {
  xdb::QueryOptions qo;
  qo.want_values = want_values;
  qo.explain = trace_;
  const double start = NowUs();
  Result<xdb::QueryResult> res = c.coll->Query(nullptr, text, qo);
  const double wall_us = NowUs() - start;
  Record(c, Kind::kQuery, start, res.status());
  if (!trace_ || !res.ok() || !c.in_window) return res;
  const xdb::obs::QueryProfile& p = res.value().profile;
  TraceAcc& t = c.tr;
  t.queries++;
  if (p.plan_cache == "hit") t.cache_hits++;
  double total = 0;
  for (const auto& ph : p.phases) {
    const double us = static_cast<double>(ph.wall_us);
    if (ph.name == "plan") t.plan_us += us;
    else if (ph.name == "probe") t.probe_us += us;
    else if (ph.name == "recheck") t.recheck_us += us;
    else if (ph.name == "merge") t.merge_us += us;
    else if (ph.name == "eval") t.eval_us += us;
    else if (ph.name == "total") total = us;
  }
  if (total > wall_us) t.profile_over_wall++;
  t.outside_us += wall_us - total;
  for (const auto& w : p.waits)
    if (w.state == "index_probe") t.probe_wait_us += static_cast<double>(w.total_us);
  t.postings += p.index_postings;
  t.anchors += p.candidate_anchors;
  t.results += p.results;
  t.records_fetched += p.records_fetched;
  t.docs_evaluated += p.docs_evaluated;
  t.scan_events += p.scan_events;
  t.peak_live += p.scan_peak_live;
  if (p.candidate_docs > 0) {
    t.candidate_docs += p.candidate_docs;
    t.doc_plan_results += p.results;
  }
  return res;
}

Result<std::string> Driver::Fetch(Client& c, uint64_t doc_id) {
  const double start = NowUs();
  Result<std::string> res = c.coll->GetDocumentText(nullptr, doc_id);
  Record(c, Kind::kFetch, start, res.status());
  return res;
}

Result<uint64_t> Driver::Insert(Client& c, const std::string& xml) {
  const double start = NowUs();
  Result<uint64_t> res = Status::OK();
  if (!trace_ || !c.in_window) {
    res = c.coll->InsertDocument(nullptr, xml);
  } else {
    // The sequence InsertDocument runs, one span per layer.
    res = [&]() -> Result<uint64_t> {
      double t0 = NowUs();
      xdb::Parser parser = engine_->MakeParser();
      xdb::TokenWriter tokens;
      XDB_RETURN_NOT_OK(parser.Parse(xml, &tokens));
      double t1 = NowUs();
      c.tr.parse_us += t1 - t0;
      xdb::Slice stream = tokens.data();
      xdb::TokenWriter validated;
      const std::string& schema = c.coll->meta().schema_name;
      if (!schema.empty()) {
        XDB_ASSIGN_OR_RETURN(const xdb::schema::CompiledSchema* cs,
                             engine_->FindSchema(schema));
        xdb::schema::ValidatorVm vm(cs, engine_->dict());
        XDB_RETURN_NOT_OK(vm.Validate(tokens.data(), &validated));
        stream = validated.data();
      }
      double t2 = NowUs();
      c.tr.validate_us += t2 - t1;
      Result<uint64_t> id = c.coll->InsertTokens(nullptr, stream);
      c.tr.insert_tokens_us += NowUs() - t2;
      c.tr.inserts++;
      c.tr.xml_bytes += xml.size();
      return id;
    }();
  }
  Record(c, Kind::kInsert, start, res.status());
  if (res.ok()) AfterWrite(c);
  return res;
}

Status Driver::UpdateText(Client& c, uint64_t doc_id,
                          const std::string& text_node_id,
                          const std::string& text) {
  const double start = NowUs();
  Status st = c.coll->UpdateTextNode(nullptr, doc_id, text_node_id, text);
  if (trace_ && c.in_window) {
    c.tr.update_text_us += NowUs() - start;
    c.tr.update_texts++;
    c.tr.xml_bytes += text.size();
  }
  Record(c, Kind::kUpdate, start, st);
  if (st.ok()) {
    c.updates++;
    AfterWrite(c);
  }
  return st;
}

Result<std::string> Driver::InsertSubtree(Client& c, uint64_t doc_id,
                                          const std::string& parent_id,
                                          const std::string& fragment) {
  const double start = NowUs();
  Result<std::string> res =
      c.coll->InsertSubtree(nullptr, doc_id, parent_id, "", fragment);
  if (trace_ && c.in_window) {
    c.tr.insert_subtree_us += NowUs() - start;
    c.tr.insert_subtrees++;
    c.tr.xml_bytes += fragment.size();
  }
  Record(c, Kind::kUpdate, start, res.status());
  if (res.ok()) {
    c.updates++;
    AfterWrite(c);
  }
  return res;
}

Status Driver::DeleteSubtree(Client& c, uint64_t doc_id,
                             const std::string& node_id) {
  const double start = NowUs();
  Status st = c.coll->DeleteSubtree(nullptr, doc_id, node_id);
  if (trace_ && c.in_window) {
    c.tr.delete_subtree_us += NowUs() - start;
    c.tr.delete_subtrees++;
  }
  Record(c, Kind::kUpdate, start, st);
  if (st.ok()) {
    c.updates++;
    AfterWrite(c);
  }
  return st;
}

Status Driver::DeleteDoc(Client& c, uint64_t doc_id) {
  const double start = NowUs();
  Status st = c.coll->DeleteDocument(nullptr, doc_id);
  if (trace_ && c.in_window) {
    c.tr.delete_doc_us += NowUs() - start;
    c.tr.delete_docs++;
  }
  Record(c, Kind::kDelete, start, st);
  if (st.ok()) AfterWrite(c);
  return st;
}

uint64_t Driver::Writebacks() const {
  return coll_ == nullptr ? 0 : coll_->buffer_manager()->stats().writebacks;
}

Status Driver::TimedCheckpoint() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  xdb::WalLog* wal = engine_->wal();
  const uint64_t wal_before = wal->size();
  const uint64_t wb_before = Writebacks();
  const double start = NowUs();
  Status st = engine_->Checkpoint();
  const double ms = (NowUs() - start) / 1000.0;
  if (!st.ok()) {
    checkpoint_failed_ = true;
    std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
    return st;
  }
  checkpoint_ms_.push_back(ms);
  checkpoint_pages_.push_back(static_cast<double>(Writebacks() - wb_before));
  wal_growth_ += wal_before - std::min(wal_before, wal_mark_);
  wal_mark_ = wal->size();
  return st;
}

void Driver::ResetWalBase() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  wal_growth_ = 0;
  wal_mark_ = engine_->wal()->size();
}

void Driver::FinishWalGrowth() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  const uint64_t now = engine_->wal()->size();
  wal_growth_ += now - std::min(now, wal_mark_);
  wal_mark_ = now;
}

std::vector<double> Driver::checkpoint_ms() const {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  return checkpoint_ms_;
}

double Driver::checkpoint_pages_mean() const {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  double sum = 0;
  for (double p : checkpoint_pages_) sum += p;
  return checkpoint_pages_.empty() ? 0 : sum / checkpoint_pages_.size();
}

// ---------------------------------------------------------------------------
// The run.

namespace {

struct Deltas {
  const xdb::obs::MetricsSnapshot& before;
  const xdb::obs::MetricsSnapshot& after;
  double Counter(const std::string& name) const {
    return static_cast<double>(after.Value(name)) -
           static_cast<double>(before.Value(name));
  }
  double HistSum(const std::string& name) const {
    const xdb::obs::Metric* a = after.Find(name);
    const xdb::obs::Metric* b = before.Find(name);
    double sa = a != nullptr ? static_cast<double>(a->hist.sum) : 0;
    double sb = b != nullptr ? static_cast<double>(b->hist.sum) : 0;
    return sa - sb;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Closed-loop clients: one thread each, never more than the 4 cores the
// benchmark is sized for.
constexpr int kClients = 4;

// Reopens timed for recovery_s, each of its own copy of the stopped
// database; the median is reported.
constexpr int kRecoveryOpens = 9;

// The window is cut into kSlices equal slices by completion time, and each
// throughput and latency metric is the median of its per-slice values, so a
// burst of outside load during part of a run moves it less.
constexpr int kSlices = 5;
using Sliced = std::vector<std::vector<double>>;  // [slice] -> latencies (ms)

// Median over the non-empty slices of each slice's q-quantile.
double SliceMedian(const Sliced& slices, double q) {
  std::vector<double> per_slice;
  for (const auto& v : slices)
    if (!v.empty()) per_slice.push_back(Quantile(v, q));
  return Quantile(per_slice, 0.5);
}

uint64_t SpaceBytes(const std::string& db_dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(db_dir))
    if (entry.is_regular_file() && entry.path().extension() == ".xts")
      total += entry.file_size();
  return total;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 1;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  std::unique_ptr<Workload> wl;
  if (options.workload == "catalog_query") wl = MakeCatalogWorkload(false);
  else if (options.workload == "catalog_ingest") wl = MakeCatalogWorkload(true);
  else if (options.workload == "deep_descendant") wl = MakeDeepWorkload();
  else return Fail("unknown workload '" + options.workload + "'");

  wl->Generate(options.seed, kClients);

  std::error_code ec;
  fs::remove_all(options.dir, ec);
  fs::create_directories(options.dir, ec);
  if (ec) return Fail("cannot create " + options.dir + ": " + ec.message());
  const std::string db_dir = options.dir + "/db";

  xdb::EngineOptions eo;
  eo.dir = db_dir;
  eo.enable_wal = true;
  eo.sync_commits = false;
  eo.num_query_threads = 1;

  // --- set-up: open, DDL, bulk load, first checkpoint -----------------------
  const double setup_start = NowUs();
  fs::create_directories(db_dir, ec);
  auto opened = xdb::Engine::Open(eo);
  if (!opened.ok()) return Fail("open: " + opened.status().ToString());
  std::unique_ptr<xdb::Engine> engine = opened.MoveValue();
  Status st = wl->Setup(engine.get());
  const double load_done = NowUs();
  if (st.ok()) st = engine->Checkpoint();
  if (!st.ok()) return Fail("set-up: " + st.ToString());
  const double setup_s = (NowUs() - setup_start) / 1e6;
  const double first_ckpt_s = (NowUs() - load_done) / 1e6;

  Driver driver(engine.get(), options.trace);
  driver.set_collection(wl->collection());
  driver.set_checkpoint_every(wl->checkpoint_every());

  std::fprintf(stderr, "%s: set-up %.3f s (first checkpoint %.3f s), %llu documents\n",
               wl->name(), setup_s, first_ckpt_s,
               static_cast<unsigned long long>(wl->LiveDocs()));
  Client oracle(-1, options.seed);
  oracle.coll = wl->collection();
  wl->CheckQueries(oracle);

  // --- measured window ------------------------------------------------------
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; i++) {
    clients.push_back(std::make_unique<Client>(
        i, options.seed * 0x100000001B3ULL + 17 * static_cast<uint64_t>(i) + 1));
    clients.back()->coll = wl->collection();
    clients.back()->driver = &driver;
  }
  const xdb::obs::MetricsSnapshot before = engine->MetricsSnapshot();
  driver.ResetWalBase();
  const double window_start = NowUs();
  const double deadline = window_start + options.seconds * 1e6;
  std::vector<double> finish(clients.size(), window_start);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients.size(); i++) {
      threads.emplace_back([&, i]() {
        Client& c = *clients[i];
        c.in_window = true;
        while (NowUs() < deadline) wl->RunOne(c);
        c.in_window = false;
        finish[i] = NowUs();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s =
      (*std::max_element(finish.begin(), finish.end()) - window_start) / 1e6;
  driver.FinishWalGrowth();
  const xdb::obs::MetricsSnapshot after = engine->MetricsSnapshot();

  wl->CheckQueries(oracle);
  st = engine->Checkpoint();
  if (!st.ok()) return Fail("final checkpoint: " + st.ToString());
  const double stored_ratio =
      Ratio(static_cast<double>(SpaceBytes(db_dir)),
            static_cast<double>(wl->LiveTextBytes()));

  // --- fixed write batch, unclean stop, timed reopen ------------------------
  Client batch(0, options.seed ^ 0x5EEDBA7C4ULL);
  batch.coll = wl->collection();
  batch.driver = &driver;
  wl->RunRecoveryBatch(batch);
  const uint64_t logged_writes = batch.writes;
  // Unclean stop: the engine is dropped without its destructor, so nothing
  // beyond what write() already handed to the OS reaches the files.
  (void)engine.release();
  std::vector<double> open_s;
  std::unique_ptr<xdb::Engine> recovered;
  for (int k = 0; k < kRecoveryOpens; k++) {
    const std::string copy = options.dir + "/recover" + std::to_string(k);
    fs::copy(db_dir, copy, fs::copy_options::recursive, ec);
    if (ec) return Fail("copy for recovery: " + ec.message());
    xdb::EngineOptions ro = eo;
    ro.dir = copy;
    const double t0 = NowUs();
    auto reopened = xdb::Engine::Open(ro);
    open_s.push_back((NowUs() - t0) / 1e6);
    if (!reopened.ok()) return Fail("recovery open: " + reopened.status().ToString());
    if (k == 0) recovered = reopened.MoveValue();
  }
  const double recovery_s = Quantile(open_s, 0.5);
  const uint64_t replayed = recovered->recovery_info().wal.records_replayed;
  if (replayed < logged_writes)
    oracle.CheckFailed("recovery replayed " + std::to_string(replayed) +
                       " records, fewer than the " +
                       std::to_string(logged_writes) + " logged writes");
  st = wl->Attach(recovered.get());
  if (!st.ok()) return Fail("attach after recovery: " + st.ToString());
  oracle.coll = wl->collection();
  wl->CheckQueries(oracle);
  wl->CheckTexts(oracle);
  recovered.reset();

  // --- results --------------------------------------------------------------
  uint64_t attempted = batch.attempted, failed = batch.failed;
  uint64_t ops = 0, writes = 0, updates = 0, check_failures = oracle.check_failures;
  const double slice_us = elapsed_s * 1e6 / kSlices;
  std::vector<double> lat[kKinds];                // pooled, for the summary
  Sliced by_kind[kKinds], by_write(kSlices);      // per slice
  std::vector<double> slice_ops(kSlices, 0);
  for (auto& v : by_kind) v.resize(kSlices);
  TraceAcc tr;
  std::vector<std::string> messages = oracle.check_messages;
  for (const auto& c : clients) {
    attempted += c->attempted;
    failed += c->failed;
    writes += c->writes;
    updates += c->updates;
    check_failures += c->check_failures;
    for (const std::string& m : c->check_messages) messages.push_back(m);
    for (int k = 0; k < kKinds; k++) {
      ops += c->samples[k].size();
      for (const Client::Sample& smp : c->samples[k]) {
        const int si = std::min(
            kSlices - 1, static_cast<int>((smp.end_us - window_start) / slice_us));
        lat[k].push_back(smp.ms);
        by_kind[k][si].push_back(smp.ms);
        if (k >= static_cast<int>(Kind::kInsert)) by_write[si].push_back(smp.ms);
        slice_ops[si] += 1;
      }
    }
    tr.Add(c->tr);
  }
  for (double& n : slice_ops) n /= slice_us / 1e6;
  if (tr.profile_over_wall > 0)
    messages.push_back(std::to_string(tr.profile_over_wall) +
                       " query profiles longer than their measured wall time");
  const bool correct = check_failures == 0 && tr.profile_over_wall == 0 &&
                       !driver.checkpoint_failed();
  for (const std::string& m : messages)
    std::fprintf(stderr, "check failed: %s\n", m.c_str());

  auto p50 = [&](Kind k) { return SliceMedian(by_kind[static_cast<int>(k)], 0.5); };
  const std::vector<double> ckpt = driver.checkpoint_ms();
  const double throughput = Quantile(slice_ops, 0.5);

  std::fprintf(stderr,
               "%s seed=%llu clients=%d window=%.2fs ops=%llu (query %zu fetch "
               "%zu insert %zu update %zu delete %zu) checkpoints=%zu "
               "throughput=%.1f ops/s live_docs=%llu replayed=%llu\n",
               wl->name(), static_cast<unsigned long long>(options.seed),
               kClients, elapsed_s, static_cast<unsigned long long>(ops),
               lat[0].size(), lat[1].size(), lat[2].size(), lat[3].size(),
               lat[4].size(), ckpt.size(), throughput,
               static_cast<unsigned long long>(wl->LiveDocs()),
               static_cast<unsigned long long>(replayed));

  static const char* kKindNames[kKinds] = {"query", "fetch", "insert",
                                           "update", "delete"};
  for (int k = 0; k < kKinds; k++)
    std::fprintf(stderr, "  %-6s n=%-6zu p10=%.3f p25=%.3f p50=%.3f p75=%.3f "
                 "p90=%.3f p99=%.3f ms\n", kKindNames[k], lat[k].size(),
                 Quantile(lat[k], 0.1), Quantile(lat[k], 0.25),
                 Quantile(lat[k], 0.5), Quantile(lat[k], 0.75),
                 Quantile(lat[k], 0.9), Quantile(lat[k], 0.99));

  std::vector<MetricOut> out;
  if (!options.trace) {
    out = {
        {"setup_s", setup_s, "s"},
        {"throughput_ops_s", throughput, "ops/s"},
        {"query_p50_ms", p50(Kind::kQuery), "ms"},
        {"query_p99_ms", SliceMedian(by_kind[static_cast<int>(Kind::kQuery)], 0.99),
         "ms"},
        {"write_p99_ms", SliceMedian(by_write, 0.99), "ms"},
        {"insert_p50_ms", p50(Kind::kInsert), "ms"},
        {"update_p50_ms", p50(Kind::kUpdate), "ms"},
        {"delete_p50_ms", p50(Kind::kDelete), "ms"},
        {"fetch_p50_ms", p50(Kind::kFetch), "ms"},
        {"checkpoint_ms", Quantile(ckpt, 0.5), "ms"},
        {"recovery_s", recovery_s, "s"},
        {"stored_bytes_per_doc_byte", stored_ratio, "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const Deltas d{before, after};
    const double q = static_cast<double>(tr.queries);
    const double w = static_cast<double>(writes);
    const double o = static_cast<double>(ops);
    const double hits = d.Counter("buffer.hits");
    const double misses = d.Counter("buffer.misses");
    out = {
        {"xml.parse_us_per_insert", Ratio(tr.parse_us, tr.inserts), "us"},
        {"schema.validate_us_per_insert", Ratio(tr.validate_us, tr.inserts), "us"},
        {"engine.insert_tokens_us", Ratio(tr.insert_tokens_us, tr.inserts), "us"},
        {"engine.update_text_us", Ratio(tr.update_text_us, tr.update_texts), "us"},
        {"engine.insert_subtree_us",
         Ratio(tr.insert_subtree_us, tr.insert_subtrees), "us"},
        {"engine.delete_subtree_us",
         Ratio(tr.delete_subtree_us, tr.delete_subtrees), "us"},
        {"engine.delete_doc_us", Ratio(tr.delete_doc_us, tr.delete_docs), "us"},
        {"engine.latch_wait_us_per_write", Ratio(d.HistSum("wait.latch.us"), w), "us"},
        {"engine.replay_records", static_cast<double>(replayed), "count"},
        {"query.plan_us", Ratio(tr.plan_us, q), "us"},
        {"query.plan_cache_hit_ratio", Ratio(tr.cache_hits, q), "ratio"},
        {"query.probe_us", Ratio(tr.probe_us, q), "us"},
        {"query.recheck_us", Ratio(tr.recheck_us, q), "us"},
        {"query.merge_us", Ratio(tr.merge_us, q), "us"},
        {"query.eval_us", Ratio(tr.eval_us, q), "us"},
        {"query.outside_us", Ratio(tr.outside_us, q), "us"},
        {"query.postings_per_result", Ratio(tr.postings, tr.results), "ratio"},
        {"query.anchors_per_result", Ratio(tr.anchors, tr.results), "ratio"},
        {"query.results_per_candidate_doc",
         Ratio(tr.doc_plan_results, tr.candidate_docs), "ratio"},
        {"query.records_fetched_per_query", Ratio(tr.records_fetched, q), "count"},
        {"query.docs_evaluated_per_query", Ratio(tr.docs_evaluated, q), "count"},
        {"xpath.scan_events_per_query", Ratio(tr.scan_events, q), "count"},
        {"xpath.scan_peak_live", Ratio(tr.peak_live, q), "count"},
        {"index.probe_wait_us_per_query", Ratio(tr.probe_wait_us, q), "us"},
        {"index.structural_entries_per_write",
         Ratio(d.Counter("index.structural.entries_added") +
                   d.Counter("index.structural.entries_removed"),
               w),
         "count"},
        {"storage.buffer_hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"storage.buffer_misses_per_op", Ratio(misses, o), "count"},
        {"storage.buffer_evictions_per_op", Ratio(d.Counter("buffer.evictions"), o),
         "count"},
        {"storage.buffer_io_us_per_op", Ratio(d.HistSum("wait.buffer_io.us"), o), "us"},
        {"storage.buffer_writebacks_per_op",
         Ratio(d.Counter("buffer.writebacks"), o), "count"},
        {"storage.io_writes_per_op", Ratio(d.Counter("io.writes"), o), "count"},
        {"storage.checkpoint_pages_written", driver.checkpoint_pages_mean(), "pages"},
        {"storage.io_reads_per_op", Ratio(d.Counter("io.reads"), o), "count"},
        {"storage.wal_bytes_per_input_byte",
         Ratio(static_cast<double>(driver.wal_growth()),
               static_cast<double>(tr.xml_bytes)),
         "ratio"},
        {"storage.wal_writes_per_write", Ratio(d.Counter("wal.io.writes"), w), "count"},
        {"storage.record_ops_per_write",
         Ratio(d.Counter("record.inserts") + d.Counter("record.updates") +
                   d.Counter("record.deletes"),
               w),
         "count"},
        {"storage.data_pages", static_cast<double>(after.Value("record.data_pages")),
         "pages"},
        {"cc.lock_acquisitions_per_op", Ratio(d.Counter("lock.acquisitions"), o),
         "count"},
        {"cc.lock_waits_per_op", Ratio(d.Counter("lock.waits"), o), "count"},
        {"cc.lock_wait_us_per_op", Ratio(d.HistSum("wait.lock_wait.us"), o), "us"},
        {"cc.node_prefix_checks_per_update",
         Ratio(d.Counter("lock.node_prefix_checks"), static_cast<double>(updates)),
         "count"},
    };
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, out).c_str());
  std::fflush(stdout);
  fs::remove_all(options.dir, ec);
  return 0;
}

}  // namespace perfbench
