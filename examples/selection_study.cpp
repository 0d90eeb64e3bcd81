// selection_study: the researcher workflow behind §4.3–§4.4 — run the
// collaborative study, rank every framework API by its Spearman correlation
// with malice, walk the four selection steps, and export the ranking and the
// selected key-API list as CSV for external plotting.
//
// Flags: --apps N (default 6000), --seed S, --csv PREFIX (write
// PREFIX_ranking.csv and PREFIX_key_apis.csv).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/selection.h"
#include "core/study.h"
#include "synth/corpus.h"
#include "util/strings.h"
#include "util/table.h"

using namespace apichecker;

int main(int argc, char** argv) {
  size_t num_apps = 6'000;
  uint64_t seed = 42;
  std::string csv_prefix;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--apps") == 0) {
      num_apps = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv_prefix = argv[i + 1];
    }
  }

  android::UniverseConfig universe_config;
  universe_config.seed = seed;
  const android::ApiUniverse universe = android::ApiUniverse::Generate(universe_config);
  synth::CorpusConfig corpus_config;
  corpus_config.seed = seed;
  synth::CorpusGenerator generator(universe, corpus_config);

  std::printf("running the collaborative study: %zu apps, %zu APIs hooked...\n", num_apps,
              universe.num_apis());
  core::StudyConfig study_config;
  study_config.num_apps = num_apps;
  const core::StudyDataset study = core::RunStudy(universe, generator, study_config);

  const auto correlations = core::ComputeApiCorrelations(study, universe.num_apis());
  const core::KeyApiSelection sel = core::SelectKeyApis(correlations, universe, study.size());

  std::printf("\n== four-step key-API selection ==\n");
  std::printf("Step 1  Set-C (|SRC| >= 0.2, not seldom)  : %zu APIs\n", sel.set_c.size());
  std::printf("Step 2  Set-P (restrictive permissions)   : %zu APIs\n", sel.set_p.size());
  std::printf("Step 3  Set-S (sensitive operations)      : %zu APIs\n", sel.set_s.size());
  std::printf("Step 4  union                             : %zu key APIs (%zu overlapped)\n",
              sel.key_apis.size(), sel.total_overlapped());

  std::printf("\n== strongest correlations ==\n");
  const auto top = core::TopCorrelatedApis(correlations, study.size(), 15);
  for (android::ApiId id : top) {
    std::printf("  %+0.3f  %s\n", correlations[id].src, universe.api(id).name.c_str());
  }
  std::printf("  ... and the frequent negatives:\n");
  for (android::ApiId id : universe.CommonOpApis()) {
    std::printf("  %+0.3f  %s\n", correlations[id].src, universe.api(id).name.c_str());
  }

  if (!csv_prefix.empty()) {
    {
      util::Table ranking({"api_id", "name", "src", "support"});
      for (const core::ApiCorrelation& c : correlations) {
        if (c.support == 0) {
          continue;
        }
        ranking.AddRow({std::to_string(c.api), universe.api(c.api).name,
                        util::FormatDouble(c.src, 5), std::to_string(c.support)});
      }
      std::ofstream out(csv_prefix + "_ranking.csv");
      ranking.PrintCsv(out);
      std::printf("\nwrote %s_ranking.csv (%zu rows)\n", csv_prefix.c_str(),
                  ranking.num_rows());
    }
    {
      util::Table keys({"api_id", "name", "in_set_c", "in_set_p", "in_set_s"});
      auto contains = [](const std::vector<android::ApiId>& v, android::ApiId id) {
        return std::binary_search(v.begin(), v.end(), id) ||
               std::find(v.begin(), v.end(), id) != v.end();
      };
      for (android::ApiId id : sel.key_apis) {
        keys.AddRow({std::to_string(id), universe.api(id).name,
                     contains(sel.set_c, id) ? "1" : "0", contains(sel.set_p, id) ? "1" : "0",
                     contains(sel.set_s, id) ? "1" : "0"});
      }
      std::ofstream out(csv_prefix + "_key_apis.csv");
      keys.PrintCsv(out);
      std::printf("wrote %s_key_apis.csv (%zu rows)\n", csv_prefix.c_str(), keys.num_rows());
    }
  }
  return 0;
}
