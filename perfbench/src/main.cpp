// perfbench: the endpoint benchmark's one binary.
//
//   perfbench gen   --universities N --out DIR     LUBM-N N-Triples + catalog
//   perfbench serve ...                            the serving process
//   perfbench load  ...                            the load generator
//
// run.py drives all three; see there for the workloads and metrics.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "harness.hpp"
#include "rdf/ntriples.hpp"
#include "workload/lubm.hpp"

namespace perfbench {
int RunServe(const std::map<std::string, std::string>& args);
int RunLoad(const std::map<std::string, std::string>& args);

namespace {

/// Writes DIR/lubm.nt (inference closure included) and DIR/catalog.tsv
/// with the generator's fixed seed; files appear only once complete.
int RunGen(const std::map<std::string, std::string>& args) {
  namespace fs = std::filesystem;
  turbo::workload::LubmConfig cfg;
  cfg.num_universities = static_cast<uint32_t>(std::stoul(args.at("universities")));
  const fs::path dir = args.at("out");
  fs::create_directories(dir);
  turbo::rdf::Dataset ds = turbo::workload::GenerateLubmClosed(cfg);
  {
    std::ofstream out(dir / "lubm.nt.tmp", std::ios::binary);
    turbo::rdf::WriteNTriples(ds, out, /*include_inferred=*/true);
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "gen: cannot write %s\n", (dir / "lubm.nt.tmp").c_str());
      return 1;
    }
  }
  if (turbo::util::Status st = WriteCatalog(CatalogFromDataset(ds), dir / "catalog.tsv.tmp");
      !st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.message().c_str());
    return 1;
  }
  fs::rename(dir / "catalog.tsv.tmp", dir / "catalog.tsv");
  fs::rename(dir / "lubm.nt.tmp", dir / "lubm.nt");
  std::fprintf(stderr, "gen: %zu triples\n", ds.size());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|serve|load --key value ...\n");
    return 2;
  }
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (!key.starts_with("--")) {
      std::fprintf(stderr, "perfbench: expected --key, got %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const std::string mode = argv[1];
  try {
    if (mode == "gen") return perfbench::RunGen(args);
    if (mode == "serve") return perfbench::RunServe(args);
    if (mode == "load") return perfbench::RunLoad(args);
  } catch (const std::exception& e) {  // a missing --key (std::map::at) or a bad number
    std::fprintf(stderr, "perfbench %s: bad arguments (%s)\n", mode.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "perfbench: unknown mode %s\n", mode.c_str());
  return 2;
}
