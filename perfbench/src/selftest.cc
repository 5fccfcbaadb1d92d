// Oracle self-test: the benchmark's checks must fail on a wrong model, and a
// traced query's profile `total` must fit inside the wall time measured
// around the same Query call.
//   perfbench_selftest --dir <scratch directory>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using perfbench::Client;
using perfbench::Workload;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) failures++;
}

// Loads one workload's corpus into a fresh file-backed engine.
std::unique_ptr<xdb::Engine> Load(Workload* wl, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  xdb::EngineOptions eo;
  eo.dir = dir;
  auto engine = xdb::Engine::Open(eo);
  if (!engine.ok() || !wl->Setup(engine.value().get()).ok()) return nullptr;
  return engine.MoveValue();
}

uint64_t FailuresOf(Workload* wl, bool texts) {
  Client oracle(-1, 1);
  oracle.coll = wl->collection();
  wl->CheckQueries(oracle);
  if (texts) wl->CheckTexts(oracle);
  return oracle.check_failures;
}

void CheckOracle(const std::string& workload, const std::string& dir) {
  for (int fault = 0; fault < 2; fault++) {
    auto wl = workload == "deep_descendant"
                  ? perfbench::MakeDeepWorkload()
                  : perfbench::MakeCatalogWorkload(false);
    wl->Generate(7, 4);
    auto engine = Load(wl.get(), dir);
    if (engine == nullptr) {
      Expect(false, workload + ": load");
      return;
    }
    Expect(FailuresOf(wl.get(), true) == 0,
           workload + ": checks pass on the true model");
    wl->PlantFault(fault);
    Expect(FailuresOf(wl.get(), fault == 0) > 0,
           workload + (fault == 0 ? ": one changed value" : ": one dropped document") +
               " makes the checks fail");
  }
}

// Every traced query of a short catalog window: profile total <= wall.
void CheckProfiles(const std::string& dir) {
  auto wl = perfbench::MakeCatalogWorkload(false);
  wl->Generate(11, 1);
  auto engine = Load(wl.get(), dir);
  if (engine == nullptr) {
    Expect(false, "profile check: load");
    return;
  }
  perfbench::Driver driver(engine.get(), /*trace=*/true);
  driver.set_collection(wl->collection());
  Client c(0, 3);
  c.coll = wl->collection();
  c.driver = &driver;
  c.in_window = true;
  for (int i = 0; i < 400; i++) wl->RunOne(c);
  Expect(c.tr.queries > 100 && c.tr.profile_over_wall == 0,
         std::to_string(c.tr.queries) + " traced queries, " +
             std::to_string(c.tr.profile_over_wall) +
             " with profile total above the measured wall time");
  Expect(c.check_failures == 0 && c.failed == 0,
         "in-window checks pass on the true model");
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  for (int i = 1; i + 1 < argc; i += 2)
    if (std::strcmp(argv[i], "--dir") == 0) dir = argv[i + 1];
  if (dir.empty()) {
    std::fprintf(stderr, "usage: perfbench_selftest --dir D\n");
    return 2;
  }
  CheckOracle("catalog_query", dir + "/catalog");
  CheckOracle("deep_descendant", dir + "/deep");
  CheckProfiles(dir + "/profile");
  std::filesystem::remove_all(dir);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
