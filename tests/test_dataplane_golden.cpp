// Data-plane golden pin: the JSON reports of a small fault-injection
// campaign and of a protocol-fuzz run, compared byte for byte against files
// written before the Prism event path was made copy-free. Every simulated
// outcome in them (message counts per link, drops, moves, transaction
// outcomes, availability, fuzz mutation traces) depends on the exact wire
// bytes, event order and RNG draws of the data plane, so an optimization of
// that path that changes any of these shows up here.
//
// The in-process equivalents of
//   difctl campaign --seeds 0..1 --scenario mixed --centralized --json F
//   difctl fuzz --seed 0 --rounds 2 --json F
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "chaos/campaign.h"
#include "chaos/fuzz.h"

namespace dif::chaos {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DIF_GOLDEN_DIR) + "/dataplane/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DataplaneGolden, MixedCampaignReportIsByteIdentical) {
  CampaignConfig config;
  config.scenario = scenario_by_name("mixed");
  config.seeds = {0, 1};
  config.decentralized = false;
  const CampaignReport report = CampaignRunner(config).run();
  ASSERT_EQ(report.config.generator.hosts, 5u);
  ASSERT_EQ(report.config.generator.components, 14u);
  EXPECT_EQ(report.to_json().dump(2) + "\n",
            read_golden("campaign_mixed_centralized_s0-1.json"));
}

TEST(DataplaneGolden, FuzzReportIsByteIdentical) {
  FuzzConfig config;
  config.campaign.scenario = scenario_by_name("mixed");
  config.seed = 0;
  config.rounds = 2;
  const FuzzReport report = FuzzRunner(config).run();
  EXPECT_EQ(report.to_json().dump(2) + "\n", read_golden("fuzz_s0_r2.json"));
}

}  // namespace
}  // namespace dif::chaos
