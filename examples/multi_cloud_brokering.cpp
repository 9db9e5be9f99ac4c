// Bursting to a pool of external providers (the paper's intro scenario and
// §VI meta-brokering discussion): two EC sites with different pipes and
// instance speeds; the controller answers "where" per job by comparing
// believed round trips, while the slackness rule still answers "when".
#include <cstdio>

#include "core/controller.hpp"
#include "simcore/simulation.hpp"
#include "stats/distributions.hpp"
#include "sla/metrics.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace cbs;
  sim::Simulation simulation;
  sim::RngStream root(555);
  workload::GroundTruthModel truth({}, root.substream("truth"));

  core::ControllerConfig cfg;
  cfg.estimator = core::EstimatorKind::kOracle;
  cfg.topology.ic_machines = 8;
  cfg.params.slack_safety_margin = 30.0;
  cfg.bandwidth_estimator.prior_rate = 1.0e6;

  // Provider A: near-region, fat pipe, standard instances.
  core::EcSiteConfig provider_a;
  provider_a.name = "near-region";
  provider_a.machines = 2;
  provider_a.speed = 1.0;
  provider_a.uplink.base_rate = 1.6e6;
  provider_a.uplink.per_connection_cap = 400.0e3;
  provider_a.uplink.noise_sigma = 0.12;
  provider_a.downlink = provider_a.uplink;
  provider_a.downlink.base_rate = 1.8e6;

  // Provider B: far-region, thin pipe, but faster (and scarcer) instances.
  core::EcSiteConfig provider_b;
  provider_b.name = "far-region";
  provider_b.machines = 1;
  provider_b.speed = 1.6;
  provider_b.uplink.base_rate = 0.7e6;
  provider_b.uplink.per_connection_cap = 200.0e3;
  provider_b.uplink.noise_sigma = 0.12;
  provider_b.downlink = provider_b.uplink;
  provider_b.downlink.base_rate = 0.8e6;

  cfg.ec_sites = {provider_a, provider_b};
  core::CloudBurstController controller(simulation, cfg, truth,
                                        root.substream("system"));

  workload::WorkloadGenerator::Config gen_cfg;
  gen_cfg.bucket = workload::SizeBucket::kLargeBiased;
  workload::WorkloadGenerator gen(gen_cfg, truth, root.substream("workload"));
  auto arr_rng = std::make_shared<sim::RngStream>(root.substream("arrivals"));
  for (std::size_t b = 0; b < 8; ++b) {
    simulation.schedule_at(
        180.0 * static_cast<double>(b), [&, b] {
          workload::Batch batch;
          batch.batch_index = b;
          batch.arrival_time = simulation.now();
          auto n = cbs::stats::sample_poisson(*arr_rng, 15.0);
          if (n == 0) n = 1;
          batch.documents = gen.batch(n);
          controller.on_batch(batch);
        });
  }
  simulation.run();

  const auto outcomes = controller.outcomes();
  std::printf("=== multi-cloud brokering (large bucket, 8 batches) ===\n\n");
  std::printf("jobs: %zu   makespan: %.1fs   speedup: %.2f   burst: %.2f\n",
              outcomes.size(), sla::makespan(outcomes), sla::speedup(outcomes),
              sla::burst_ratio(outcomes));
  std::printf("\nper-provider placement:\n");
  for (std::size_t s = 0; s < controller.site_count(); ++s) {
    const core::EcSite& site = controller.site(s);
    std::printf("  %-12s %3zu jobs   %.0f MB moved   instance busy %.0fs\n",
                site.cluster.name().c_str(), site.bursts,
                site.uplink.total_bytes_delivered() / 1e6,
                site.cluster.total_busy_time());
  }
  std::printf("\nboth providers should carry load: the near-region pipe is\n"
              "faster, but once its upload queue fills, the far-region's\n"
              "faster instances win the round-trip comparison for some jobs.\n");
  return 0;
}
