// deep_descendant: recursive <a> spines with off-path <x> children and rare
// <t> payloads, an all-names structural index, and a corpus that fits in the
// buffer pool.
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.h"

namespace perfbench {
namespace {

using xdb::Status;

constexpr unsigned kMinDepth = 32;
constexpr unsigned kMaxDepth = 64;
constexpr size_t kDocs = 512;
// Large enough that the whole corpus and its structural index stay
// resident: this workload is the cache-resident counterpart of
// catalog_query.
constexpr size_t kBufferPages = 16384;

struct TNode {
  std::string node_id;
  std::string payload;
};

// One <a> of the spine: its <x> children, then the next <a> (if any), then
// its <t> children.
struct Level {
  std::string a_id;
  std::vector<std::string> xs;
  std::vector<TNode> ts;
};

struct Doc {
  uint64_t doc_id = 0;
  std::vector<Level> levels;
};

std::string Render(const Doc& d) {
  std::string x;
  for (const Level& l : d.levels) {
    x += "<a>";
    for (const std::string& s : l.xs) x += "<x>" + s + "</x>";
  }
  for (auto it = d.levels.rbegin(); it != d.levels.rend(); ++it) {
    for (const TNode& t : it->ts) x += "<t>" + t.payload + "</t>";
    x += "</a>";
  }
  return x;
}

// The query set: two structural-scan descendant shapes and one full-scan
// shape. want_values returns <t> payloads; //a[t] is identified by the
// depth of each matching <a>.
enum class Shape { kPayloads, kAWithT };
struct QuerySpec {
  const char* text;
  Shape shape;
};
const QuerySpec kQueries[] = {
    {"//a//t", Shape::kPayloads},
    {"//t", Shape::kPayloads},
    {"//a[t]", Shape::kAWithT},
};

void AppendExpected(const QuerySpec& q, const Doc& d,
                    std::vector<Identity>* out) {
  for (size_t i = 0; i < d.levels.size(); i++) {
    const Level& l = d.levels[i];
    if (q.shape == Shape::kAWithT) {
      if (!l.ts.empty()) out->emplace_back(d.doc_id, std::to_string(i + 1));
    } else {
      for (const TNode& t : l.ts) out->emplace_back(d.doc_id, t.payload);
    }
  }
}

Identity ResultIdentity(const QuerySpec& q, const xdb::ResultNode& n) {
  if (q.shape == Shape::kAWithT)
    return {n.doc_id, std::to_string(NodeDepth(n.node_id))};
  return {n.doc_id, n.string_value};
}

// Short <x> text: a letter and a number below 1000.
std::string Word(char letter, Rng* rng) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%c%u", letter,
                static_cast<unsigned>(rng->Uniform(1000)));
  return buf;
}

struct Model {
  std::vector<Doc> docs;
  std::unordered_map<uint64_t, size_t> index;
  size_t target_docs = 0;
  size_t target_ts = 0;  // <t> count the subtree mix holds
  size_t ts = 0;
  uint64_t next_payload = 0;

  void Add(Doc d) {
    for (const Level& l : d.levels) ts += l.ts.size();
    index[d.doc_id] = docs.size();
    docs.push_back(std::move(d));
  }
  void Remove(size_t pos) {
    for (const Level& l : docs[pos].levels) ts -= l.ts.size();
    index.erase(docs[pos].doc_id);
    if (pos + 1 != docs.size()) {
      docs[pos] = std::move(docs.back());
      index[docs[pos].doc_id] = pos;
    }
    docs.pop_back();
  }
};

class DeepWorkload : public Workload {
 public:
  const char* name() const override { return "deep_descendant"; }
  xdb::Collection* collection() const override { return coll_; }
  uint64_t checkpoint_every() const override { return 1500; }

  void Generate(uint64_t seed, int clients) override {
    Rng rng(seed ^ 0xDEE9ULL);
    models_.assign(static_cast<size_t>(clients), Model{});
    initial_.clear();
    for (size_t i = 0; i < kDocs; i++)
      initial_.push_back(NewDoc(&rng, &models_[i % models_.size()]));
    for (Model& m : models_) {
      m.target_docs = kDocs / models_.size();
      m.target_ts = std::max<size_t>(4, m.target_docs / 8);
    }
  }

  Status Setup(xdb::Engine* engine) override {
    xdb::CollectionOptions co;
    co.buffer_pages = kBufferPages;
    XDB_ASSIGN_OR_RETURN(coll_, engine->CreateCollection("deep", co));
    XDB_RETURN_NOT_OK(coll_->CreateStructuralIndex({"all_names", ""}));
    for (size_t i = 0; i < initial_.size(); i++) {
      Doc& d = initial_[i];
      XDB_ASSIGN_OR_RETURN(d.doc_id, coll_->InsertDocument(nullptr, Render(d)));
      models_[i % models_.size()].Add(std::move(d));
    }
    initial_.clear();
    return Status::OK();
  }

  Status Attach(xdb::Engine* engine) override {
    XDB_ASSIGN_OR_RETURN(coll_, engine->GetCollection("deep"));
    return Status::OK();
  }

  void RunOne(Client& c) override {
    // Per-mille: //a//t, //t, //a[t], <t> subtree, text update, fetch,
    // doc churn.
    static const std::vector<unsigned> kMix = {140, 140, 40, 480, 80, 60, 60};
    switch (PickWeighted(&c.rng, kMix)) {
      case 0: return RunQuery(c, kQueries[0]);
      case 1: return RunQuery(c, kQueries[1]);
      case 2: return RunQuery(c, kQueries[2]);
      case 3: return RunSubtree(c);
      case 4: return RunUpdate(c);
      case 5: return RunFetch(c);
      default: return RunChurn(c);
    }
  }

  // 128 writes of every kind; the whole space stays in the buffer pool, so
  // nothing written after the last checkpoint reaches the file before the
  // stop except the WAL.
  void RunRecoveryBatch(Client& c) override {
    for (int i = 0; i < 128; i++) {
      switch (c.rng.Uniform(4)) {
        case 0: RunUpdate(c); break;
        case 1: RunChurn(c); break;
        default: RunSubtree(c); break;
      }
    }
  }

  void CheckQueries(Client& c) override {
    auto count = coll_->DocCount();
    if (!count.ok() || count.value() != LiveDocs())
      c.CheckFailed("DocCount differs from the model's " +
                    std::to_string(LiveDocs()));
    for (const QuerySpec& q : kQueries) {
      xdb::QueryOptions qo;
      qo.want_values = q.shape == Shape::kPayloads;
      auto res = coll_->Query(nullptr, q.text, qo);
      if (!res.ok()) {
        c.CheckFailed(std::string(q.text) + ": " + res.status().ToString());
        continue;
      }
      std::vector<Identity> got, want;
      for (const auto& n : res.value().nodes)
        got.push_back(ResultIdentity(q, n));
      for (const Model& m : models_)
        for (const Doc& d : m.docs) AppendExpected(q, d, &want);
      CheckAnswer(c, q.text, res.value().nodes, std::move(got), std::move(want));
    }
  }

  void CheckTexts(Client& c) override {
    for (const Model& m : models_)
      for (const Doc& d : m.docs) {
        auto text = coll_->GetDocumentText(nullptr, d.doc_id);
        if (!text.ok() || text.value() != Render(d))
          c.CheckFailed("document " + std::to_string(d.doc_id) +
                        " differs from the model");
      }
  }

  uint64_t LiveDocs() const override {
    uint64_t n = 0;
    for (const Model& m : models_) n += m.docs.size();
    return n;
  }

  uint64_t LiveTextBytes() const override {
    uint64_t n = 0;
    for (const Model& m : models_)
      for (const Doc& d : m.docs) n += Render(d).size();
    return n;
  }

  void PlantFault(int fault) override {
    for (Model& m : models_) {
      if (fault == 1 && !m.docs.empty()) return m.Remove(0);
      for (Doc& d : m.docs)
        for (Level& l : d.levels)
          if (fault == 0 && !l.ts.empty()) {
            l.ts[0].payload += "-wrong";
            return;
          }
    }
  }

 private:
  std::string NewPayload(Model* m, Client* c) {
    std::string p = "p";
    p += std::to_string(c == nullptr ? 9 : c->id);
    p += 'n';
    p += std::to_string(m->next_payload++);
    return p;
  }

  Doc NewDoc(Rng* rng, Model* m, Client* c = nullptr) {
    Doc d;
    const unsigned depth = static_cast<unsigned>(rng->Range(kMinDepth, kMaxDepth));
    std::string id;
    for (unsigned i = 0; i < depth; i++) {
      Level l;
      const unsigned nx = static_cast<unsigned>(rng->Range(1, 2));
      for (unsigned k = 0; k < nx; k++) l.xs.push_back(Word('w', rng));
      // The spine child follows this level's <x> children.
      id += i == 0 ? ChildId(1) : ChildId(static_cast<unsigned>(
                                      d.levels.back().xs.size() + 1));
      l.a_id = id;
      d.levels.push_back(std::move(l));
    }
    if (rng->Uniform(16) == 0) {
      // Initial payload at a deep level: after the <x> children and the
      // spine child (absent on the deepest level).
      const size_t li = rng->Range(depth / 2, depth - 1);
      Level& l = d.levels[li];
      const unsigned ord = static_cast<unsigned>(
          l.xs.size() + (li + 1 < d.levels.size() ? 1 : 0) + 1);
      l.ts.push_back({l.a_id + ChildId(ord), NewPayload(m, c)});
    }
    return d;
  }

  Model& model(Client& c) { return models_[static_cast<size_t>(c.id)]; }

  void RunQuery(Client& c, const QuerySpec& q) {
    auto res = c.driver->Query(c, q.text, q.shape == Shape::kPayloads);
    if (!res.ok()) return;
    // Exact on the client's own documents (see the catalog workload).
    Model& m = model(c);
    std::vector<Identity> got, want;
    for (const auto& n : res.value().nodes)
      if (m.index.count(n.doc_id)) got.push_back(ResultIdentity(q, n));
    for (const Doc& d : m.docs) AppendExpected(q, d, &want);
    CheckAnswer(c, std::string(q.text) + " (own documents)", res.value().nodes,
                std::move(got), std::move(want));
  }

  void RunFetch(Client& c) {
    Model& m = model(c);
    if (m.docs.empty()) return RunChurn(c);
    const Doc& d = m.docs[c.rng.Uniform(m.docs.size())];
    auto text = c.driver->Fetch(c, d.doc_id);
    if (text.ok() && text.value() != Render(d))
      c.CheckFailed("fetch of document " + std::to_string(d.doc_id) +
                    " differs from the model");
  }

  // <t> subtree insert at a deep position, or delete of an existing <t>,
  // holding the client's <t> count near its target.
  void RunSubtree(Client& c) {
    Model& m = model(c);
    if (m.docs.empty()) return RunChurn(c);
    const bool insert = m.ts < m.target_ts ||
                        (m.ts == m.target_ts && c.rng.Uniform(2) == 0);
    if (!insert) {
      // The n-th <t> of the client, in model order.
      size_t n = c.rng.Uniform(m.ts);
      for (Doc& d : m.docs)
        for (Level& l : d.levels) {
          if (n >= l.ts.size()) {
            n -= l.ts.size();
            continue;
          }
          if (c.driver->DeleteSubtree(c, d.doc_id, l.ts[n].node_id).ok()) {
            l.ts.erase(l.ts.begin() + static_cast<long>(n));
            m.ts--;
          }
          return;
        }
      return;
    }
    Doc& d = m.docs[c.rng.Uniform(m.docs.size())];
    Level& l = d.levels[c.rng.Range(d.levels.size() / 2, d.levels.size() - 1)];
    TNode t{"", NewPayload(&m, &c)};
    auto id = c.driver->InsertSubtree(c, d.doc_id, l.a_id,
                                      "<t>" + t.payload + "</t>");
    if (!id.ok()) return;
    t.node_id = id.MoveValue();
    l.ts.push_back(std::move(t));
    m.ts++;
  }

  // Text update: a <t> payload when the chosen document has one, otherwise
  // an <x> text.
  void RunUpdate(Client& c) {
    Model& m = model(c);
    if (m.docs.empty()) return RunChurn(c);
    Doc& d = m.docs[c.rng.Uniform(m.docs.size())];
    for (Level& l : d.levels)
      for (TNode& t : l.ts) {
        std::string payload = NewPayload(&m, &c);
        if (c.driver->UpdateText(c, d.doc_id, t.node_id + ChildId(1), payload)
                .ok())
          t.payload = std::move(payload);
        return;
      }
    Level& l = d.levels[c.rng.Uniform(d.levels.size())];
    const size_t k = c.rng.Uniform(l.xs.size());
    std::string text = Word('u', &c.rng);
    if (c.driver->UpdateText(c, d.doc_id,
                             l.a_id + ChildId(static_cast<unsigned>(k + 1)) +
                                 ChildId(1),
                             text)
            .ok())
      l.xs[k] = std::move(text);
  }

  void RunChurn(Client& c) {
    Model& m = model(c);
    bool insert = m.docs.size() < m.target_docs ||
                  (m.docs.size() == m.target_docs && c.rng.Uniform(2) == 0);
    if (!insert) {
      const size_t pos = c.rng.Uniform(m.docs.size());
      if (c.driver->DeleteDoc(c, m.docs[pos].doc_id).ok()) m.Remove(pos);
      return;
    }
    Doc d = NewDoc(&c.rng, &m, &c);
    auto id = c.driver->Insert(c, Render(d));
    if (!id.ok()) return;
    d.doc_id = id.value();
    m.Add(std::move(d));
  }

  xdb::Collection* coll_ = nullptr;
  std::vector<Model> models_;
  std::vector<Doc> initial_;
};

}  // namespace

std::unique_ptr<Workload> MakeDeepWorkload() {
  return std::make_unique<DeepWorkload>();
}

}  // namespace perfbench
