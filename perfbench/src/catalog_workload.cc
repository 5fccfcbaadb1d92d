// catalog_query and catalog_ingest: the paper's product catalog (Table 2)
// under schema validation with both value indexes, read-mostly or
// write-heavy.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "bench.h"
#include "util/workload.h"

namespace perfbench {
namespace {

using xdb::Result;
using xdb::Status;

const char* kWords[] = {"alpha", "bravo", "charlie", "delta",  "echo",
                        "foxtrot", "golf",  "hotel",   "india", "juliet"};

// Corpus shape. Product ordinals stay far below 126, so every node ID of a
// freshly inserted document is one byte per level (see ChildId).
constexpr unsigned kCategories = 2;
constexpr unsigned kProductsPerCategory = 10;
constexpr unsigned kDescriptionBytes = 40;

struct Product {
  std::string id;  // @id, unique within its document
  std::string name;
  int64_t price = 0;   // RegPrice in cents
  int discount = -1;   // Discount in mills; -1 when the element is absent
  std::string desc;
  std::string node_id;  // absolute node ID of the Product element
};

struct Category {
  std::string node_id;
  std::vector<Product> products;
};

struct Doc {
  uint64_t doc_id = 0;
  std::vector<Category> cats;
  uint32_t next_product = 1;
};

// What one query returns, computed from the model alone.
enum class Shape { kPrices, kDiscountIds, kAndIds, kNames };
struct QuerySpec {
  const char* text;
  Shape shape;
  int64_t min_price;  // RegPrice > min_price (cents); -1 = no price test
  int min_discount;   // Discount > min_discount (mills); -1 = no test
};

// The fixed query set: few texts, so the plan cache can hit. Each query
// matches well under 1% of the products: a query S-locks every document it
// rechecks until it returns, so wider queries would make most writes wait
// for one.
const QuerySpec kQueries[] = {
    {"/Catalog/Categories/Product[RegPrice > 498.5]/RegPrice", Shape::kPrices,
     49850, -1},
    {"/Catalog/Categories/Product[RegPrice > 499.2]/RegPrice", Shape::kPrices,
     49920, -1},
    {"/Catalog/Categories/Product[Discount > 0.495]/@id", Shape::kDiscountIds,
     -1, 495},
    {"/Catalog/Categories/Product[Discount > 0.497]/@id", Shape::kDiscountIds,
     -1, 497},
    {"/Catalog/Categories/Product[RegPrice > 475 and Discount > 0.475]/@id",
     Shape::kAndIds, 47500, 475},
    {"/Catalog/Categories/Product[RegPrice > 400 and Discount > 0.49]/@id",
     Shape::kAndIds, 40000, 490},
    {"/Catalog/Categories/Product[RegPrice > 499]/ProductName", Shape::kNames,
     49900, -1},
    {"/Catalog/Categories/Product[RegPrice > 499.5]/ProductName",
     Shape::kNames, 49950, -1},
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

bool Matches(const QuerySpec& q, const Product& p) {
  if (q.min_price >= 0 && !(p.price > q.min_price)) return false;
  if (q.min_discount >= 0 && !(p.discount > q.min_discount)) return false;
  return true;
}

std::string ResultValue(const QuerySpec& q, const Product& p) {
  switch (q.shape) {
    case Shape::kPrices: return FormatCents(p.price);
    case Shape::kNames: return p.name;
    default: return p.id;
  }
}

void AppendExpected(const QuerySpec& q, const Doc& d,
                    std::vector<Identity>* out) {
  for (const Category& c : d.cats)
    for (const Product& p : c.products)
      if (Matches(q, p)) out->emplace_back(d.doc_id, ResultValue(q, p));
}

/// "0.123" from 123.
std::string FormatMills(int mills) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0.%03d", mills);
  return buf;
}

std::string RenderProduct(const Product& p) {
  std::string x = "<Product id=\"" + p.id + "\"><ProductName>" + p.name +
                  "</ProductName><RegPrice>" + FormatCents(p.price) +
                  "</RegPrice>";
  if (p.discount >= 0)
    x += "<Discount>" + FormatMills(p.discount) + "</Discount>";
  x += "<Description>" + p.desc + "</Description></Product>";
  return x;
}

std::string Render(const Doc& d) {
  std::string x = "<Catalog>";
  for (const Category& c : d.cats) {
    x += "<Categories>";
    for (const Product& p : c.products) x += RenderProduct(p);
    x += "</Categories>";
  }
  x += "</Catalog>";
  return x;
}

/// Parses "123.45" into cents; false on anything else.
bool ParseCents(const std::string& s, int64_t* cents) {
  size_t dot = s.find('.');
  if (dot == std::string::npos || dot == 0 || s.size() - dot != 3) return false;
  int64_t v = 0;
  for (size_t i = 0; i < s.size(); i++) {
    if (i == dot) continue;
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + (s[i] - '0');
  }
  *cents = v;
  return true;
}

// One client's owned documents.
struct Model {
  std::vector<Doc> docs;
  std::unordered_map<uint64_t, size_t> index;  // doc_id -> position in docs
  size_t target = 0;  // corpus share the doc insert/delete mix holds
  uint64_t next_name = 0;
  // (doc_id, category) of every category holding an appended product, most
  // recent last; entries of deleted documents are dropped lazily.
  std::vector<std::pair<uint64_t, size_t>> appended;

  void Add(Doc d) {
    index[d.doc_id] = docs.size();
    docs.push_back(std::move(d));
  }
  void Remove(size_t pos) {
    index.erase(docs[pos].doc_id);
    if (pos + 1 != docs.size()) {
      docs[pos] = std::move(docs.back());
      index[docs[pos].doc_id] = pos;
    }
    docs.pop_back();
  }
};

class CatalogWorkload : public Workload {
 public:
  explicit CatalogWorkload(bool ingest) : ingest_(ingest) {}

  const char* name() const override {
    return ingest_ ? "catalog_ingest" : "catalog_query";
  }
  xdb::Collection* collection() const override { return coll_; }
  uint64_t checkpoint_every() const override { return ingest_ ? 2500 : 600; }

  void Generate(uint64_t seed, int clients) override {
    Rng rng(seed);
    models_.assign(static_cast<size_t>(clients), Model{});
    const size_t docs = kDocs;
    initial_.clear();
    for (size_t i = 0; i < docs; i++) {
      Model& m = models_[i % models_.size()];
      initial_.push_back(NewDoc(&rng, &m));
    }
    for (Model& m : models_) m.target = docs / models_.size();
  }

  Status Setup(xdb::Engine* engine) override {
    XDB_RETURN_NOT_OK(
        engine->RegisterSchema("catalog", xdb::workload::CatalogSchemaText()));
    xdb::CollectionOptions co;
    co.schema = "catalog";
    co.buffer_pages = 512;
    XDB_ASSIGN_OR_RETURN(coll_, engine->CreateCollection("catalog", co));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"regprice", "/Catalog/Categories/Product/RegPrice",
         xdb::ValueType::kDecimal, 128}));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"discount", "//Discount", xdb::ValueType::kDecimal, 128}));
    if (ingest_)
      XDB_RETURN_NOT_OK(coll_->CreateStructuralIndex({"product", "Product"}));
    for (size_t i = 0; i < initial_.size(); i++) {
      Doc& d = initial_[i];
      XDB_ASSIGN_OR_RETURN(d.doc_id, coll_->InsertDocument(nullptr, Render(d)));
      models_[i % models_.size()].Add(std::move(d));
    }
    initial_.clear();
    return Status::OK();
  }

  Status Attach(xdb::Engine* engine) override {
    XDB_ASSIGN_OR_RETURN(coll_, engine->GetCollection("catalog"));
    return Status::OK();
  }

  void RunOne(Client& c) override {
    // Per-mille weights: query, fetch, text update, subtree, doc churn.
    static const std::vector<unsigned> kQueryMix = {800, 100, 50, 20, 30};
    static const std::vector<unsigned> kIngestMix = {100, 80, 220, 160, 440};
    switch (PickWeighted(&c.rng, ingest_ ? kIngestMix : kQueryMix)) {
      case 0: return RunQuery(c, kQueries[c.rng.Uniform(kNumQueries)]);
      case 1: return RunFetch(c);
      case 2: return RunUpdate(c);
      case 3: return RunSubtree(c);
      default: return RunChurn(c);
    }
  }

  // No writes. The corpus is larger than the buffer pool, so pages dirtied
  // after the last checkpoint reach the file through eviction, and the
  // engine's WAL replay over such pages loses or corrupts updates of every
  // kind (see CHANGES.md, FOUND). The stop is still unclean and the reopen
  // still timed and checked.
  void RunRecoveryBatch(Client&) override {}

  void CheckQueries(Client& c) override {
    uint64_t model_docs = LiveDocs();
    auto count = coll_->DocCount();
    if (!count.ok() || count.value() != model_docs)
      c.CheckFailed("DocCount " +
                    (count.ok() ? std::to_string(count.value())
                                : count.status().ToString()) +
                    " != model " + std::to_string(model_docs));
    for (const QuerySpec& q : kQueries) {
      xdb::QueryOptions qo;
      qo.want_values = true;
      auto res = coll_->Query(nullptr, q.text, qo);
      if (!res.ok()) {
        c.CheckFailed(std::string(q.text) + ": " + res.status().ToString());
        continue;
      }
      std::vector<Identity> got, want;
      for (const auto& n : res.value().nodes)
        got.emplace_back(n.doc_id, n.string_value);
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
        for (Category& cat : d.cats)
          for (Product& p : cat.products)
            if (fault == 0 && p.price > 49850) {
              p.price -= 1000;  // moves it below every query threshold
              return;
            }
    }
  }

 private:
  // The corpus: 2400 documents, about 8 MB of XML and 14 MB stored, several
  // times the collection's 512-page (2 MiB) buffer pool.
  static constexpr size_t kDocs = 2400;

  Product NewProduct(Rng* rng, Model* m, Doc* d) {
    Product p;
    p.id = "P" + std::to_string(d->next_product++);
    p.name = std::string(kWords[rng->Uniform(10)]) + "-" +
             std::to_string(m->next_name++);
    p.price = static_cast<int64_t>(rng->Range(100, 49999));
    if (rng->Uniform(10) < 3) p.discount = static_cast<int>(rng->Uniform(500));
    while (p.desc.size() < kDescriptionBytes) {
      if (!p.desc.empty()) p.desc += ' ';
      p.desc += kWords[rng->Uniform(10)];
    }
    return p;
  }

  Doc NewDoc(Rng* rng, Model* m) {
    Doc d;
    for (unsigned ci = 0; ci < kCategories; ci++) {
      Category cat;
      cat.node_id = ChildId(1) + ChildId(ci + 1);
      for (unsigned pi = 0; pi < kProductsPerCategory; pi++) {
        Product p = NewProduct(rng, m, &d);
        p.node_id = cat.node_id + ChildId(pi + 1);
        cat.products.push_back(std::move(p));
      }
      d.cats.push_back(std::move(cat));
    }
    return d;
  }

  Model& model(Client& c) { return models_[static_cast<size_t>(c.id)]; }

  void RunQuery(Client& c, const QuerySpec& q) {
    auto res = c.driver->Query(c, q.text, /*want_values=*/true);
    if (!res.ok()) return;
    const xdb::NodeSequence& nodes = res.value().nodes;
    // Values any interleaving must respect.
    if (q.shape == Shape::kPrices) {
      for (const auto& n : nodes) {
        int64_t cents = 0;
        if (!ParseCents(n.string_value, &cents) || !(cents > q.min_price)) {
          c.CheckFailed(std::string(q.text) + ": returned RegPrice '" +
                        n.string_value + "'");
          break;
        }
      }
    }
    // This client is the only writer of its documents and its own writes
    // have all returned, so their share of the answer is exact.
    Model& m = model(c);
    std::vector<Identity> got, want;
    for (const auto& n : nodes)
      if (m.index.count(n.doc_id)) got.emplace_back(n.doc_id, n.string_value);
    for (const Doc& d : m.docs) AppendExpected(q, d, &want);
    CheckAnswer(c, std::string(q.text) + " (own documents)", nodes,
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

  // RegPrice or Discount text update: moves a value-index key.
  void RunUpdate(Client& c) {
    Model& m = model(c);
    if (m.docs.empty()) return RunChurn(c);
    Doc& d = m.docs[c.rng.Uniform(m.docs.size())];
    Category& cat = d.cats[c.rng.Uniform(d.cats.size())];
    if (cat.products.empty()) return RunSubtree(c);
    Product& p = cat.products[c.rng.Uniform(cat.products.size())];
    if (p.discount >= 0 && c.rng.Uniform(10) < 3) {
      const int v = static_cast<int>(c.rng.Uniform(500));
      // Discount is the Product's fourth child; its text the first below.
      if (c.driver->UpdateText(c, d.doc_id, p.node_id + ChildId(4) + ChildId(1),
                               FormatMills(v)).ok())
        p.discount = v;
    } else {
      const int64_t v = static_cast<int64_t>(c.rng.Range(100, 49999));
      if (c.driver->UpdateText(c, d.doc_id, p.node_id + ChildId(3) + ChildId(1),
                               FormatCents(v)).ok())
        p.price = v;
    }
  }

  // Product subtree insert or delete. Each category holds at most one
  // appended product; deletes take the most recently appended one. Only
  // appended products are deleted: deleting one from the middle leaves a gap
  // among sibling IDs, after which the engine's value-index re-derivation
  // goes wrong (see CHANGES.md, FOUND).
  void RunSubtree(Client& c) {
    Model& m = model(c);
    if (m.docs.empty()) return RunChurn(c);
    while (!m.appended.empty() && !m.index.count(m.appended.back().first))
      m.appended.pop_back();  // its document was deleted since
    Doc& d = m.docs[c.rng.Uniform(m.docs.size())];
    const size_t ci = c.rng.Uniform(d.cats.size());
    Category& cat = d.cats[ci];
    if (cat.products.size() == kProductsPerCategory &&
        (m.appended.empty() || c.rng.Uniform(2) == 0)) {
      Product p = NewProduct(&c.rng, &m, &d);
      auto id =
          c.driver->InsertSubtree(c, d.doc_id, cat.node_id, RenderProduct(p));
      if (!id.ok()) return;
      p.node_id = id.MoveValue();
      cat.products.push_back(std::move(p));
      m.appended.emplace_back(d.doc_id, ci);
      return;
    }
    const auto [doc_id, tci] = m.appended.back();
    Doc& td = m.docs[m.index[doc_id]];
    Category& tcat = td.cats[tci];
    if (c.driver->DeleteSubtree(c, doc_id, tcat.products.back().node_id).ok()) {
      tcat.products.pop_back();
      m.appended.pop_back();
    }
  }

  // Validated document insert or document delete, holding the client's
  // corpus share near its target.
  void RunChurn(Client& c) {
    Model& m = model(c);
    bool insert = m.docs.size() < m.target ||
                  (m.docs.size() == m.target && c.rng.Uniform(2) == 0);
    if (!insert) {
      const size_t pos = c.rng.Uniform(m.docs.size());
      if (c.driver->DeleteDoc(c, m.docs[pos].doc_id).ok()) m.Remove(pos);
      return;
    }
    Doc d = NewDoc(&c.rng, &m);
    auto id = c.driver->Insert(c, Render(d));
    if (!id.ok()) return;
    d.doc_id = id.value();
    m.Add(std::move(d));
  }

  const bool ingest_;
  xdb::Collection* coll_ = nullptr;
  std::vector<Model> models_;
  std::vector<Doc> initial_;  // generated corpus awaiting the bulk load
};

}  // namespace

std::unique_ptr<Workload> MakeCatalogWorkload(bool ingest) {
  return std::make_unique<CatalogWorkload>(ingest);
}

}  // namespace perfbench
