// Data-plane golden pin: the JSON reports of a small fault-injection
// campaign and of a protocol-fuzz run, compared byte for byte against files
// written before the Prism event path was made copy-free. Every simulated
// outcome in them (message counts per link, drops, moves, transaction
// outcomes, availability, fuzz mutation traces) depends on the exact wire
// bytes, event order and RNG draws of the data plane, so an optimization of
// that path that changes any of these shows up here.
//
// The quiet 16x64 campaigns are the size at which link queues build (the
// busiest links hold thousands of messages in flight; queueing delays reach
// minutes of simulated time), and the decentralized one also covers the
// model-sync and auction traffic the centralized campaigns never send.
//
// The in-process equivalents of
//   difctl campaign --seeds 0..1 --scenario mixed --centralized --json F
//   difctl fuzz --seed 0 --rounds 2 --json F
//   difctl campaign --seeds 0 --scenario quiet --hosts 16 --components 64
//       --centralized|--decentralized --json F
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

CampaignReport quiet_16x64(bool decentralized) {
  CampaignConfig config;
  config.scenario = scenario_by_name("quiet");
  config.seeds = {0};
  config.generator.hosts = 16;
  config.generator.components = 64;
  config.centralized = !decentralized;
  config.decentralized = decentralized;
  return CampaignRunner(config).run();
}

TEST(DataplaneGolden, Quiet16x64CentralizedReportIsByteIdentical) {
  EXPECT_EQ(quiet_16x64(false).to_json().dump(2) + "\n",
            read_golden("campaign_quiet_16x64_centralized_s0.json"));
}

TEST(DataplaneGolden, Quiet16x64DecentralizedReportIsByteIdentical) {
  EXPECT_EQ(quiet_16x64(true).to_json().dump(2) + "\n",
            read_golden("campaign_quiet_16x64_decentralized_s0.json"));
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
