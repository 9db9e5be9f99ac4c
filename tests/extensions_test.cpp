// Tests for the paper's future-work features implemented by this library:
// elastic clusters + the EC scaling policy, per-class QRSM surfaces,
// position-aware chunking, and one controller bursting to several EC sites.
#include <gtest/gtest.h>

#include "compute/cluster.hpp"
#include "core/controller.hpp"
#include "core/order_preserving_scheduler.hpp"
#include "models/per_class_qrsm.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "workload/generator.hpp"

namespace {

using namespace cbs;
using cbs::sim::RngStream;
using cbs::sim::Simulation;

// ---- elastic Cluster -------------------------------------------------------

TEST(ElasticClusterTest, AddMachineIncreasesParallelism) {
  Simulation sim;
  compute::Cluster cluster(sim, "c", 1);
  std::vector<double> done;
  cluster.set_task_complete_hook(
      [&](const compute::TaskRecord& rec) { done.push_back(rec.completed); });
  for (int i = 0; i < 2; ++i) cluster.submit(10.0, 0, 0);
  cluster.add_machine();
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Second task starts immediately on the new machine.
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_EQ(cluster.machine_count(), 2u);
}

TEST(ElasticClusterTest, RemoveIdleMachineImmediately) {
  Simulation sim;
  compute::Cluster cluster(sim, "c", 3);
  EXPECT_TRUE(cluster.remove_machine());
  EXPECT_EQ(cluster.machine_count(), 2u);
}

TEST(ElasticClusterTest, NeverScalesToZero) {
  Simulation sim;
  compute::Cluster cluster(sim, "c", 1);
  EXPECT_FALSE(cluster.remove_machine());
  EXPECT_EQ(cluster.machine_count(), 1u);
}

TEST(ElasticClusterTest, BusyMachineDrainsBeforeRetiring) {
  Simulation sim;
  compute::Cluster cluster(sim, "c", 1);
  double first_done = -1.0;
  cluster.set_task_complete_hook(
      [&](const compute::TaskRecord& rec) { first_done = rec.completed; });
  cluster.submit(10.0, 0, 0);
  cluster.add_machine();          // now 2 machines
  EXPECT_TRUE(cluster.remove_machine());  // removes the idle new one
  EXPECT_EQ(cluster.machine_count(), 1u);
  EXPECT_TRUE(cluster.remove_machine() == false);  // only the busy one left
  sim.run();
  EXPECT_DOUBLE_EQ(first_done, 10.0);  // running task unaffected
}

TEST(ElasticClusterTest, RetiredSlotIsReused) {
  Simulation sim;
  compute::Cluster cluster(sim, "c", 2);
  EXPECT_TRUE(cluster.remove_machine());
  const std::size_t idx = cluster.add_machine();
  EXPECT_LT(idx, 2u);  // reused a slot instead of growing
  EXPECT_EQ(cluster.machine_count(), 2u);
  EXPECT_EQ(cluster.machine_slots(), 2u);
}

TEST(ElasticClusterTest, ProvisionedMachineSecondsIntegrate) {
  Simulation sim;
  compute::Cluster cluster(sim, "c", 2);
  sim.schedule_at(10.0, [&] { cluster.add_machine(); });
  sim.schedule_at(20.0, [&] { cluster.remove_machine(); });
  sim.schedule_at(30.0, [&] {});
  sim.run();
  // 2 machines for 10s, 3 for 10s, 2 for 10s = 70 machine-seconds.
  EXPECT_DOUBLE_EQ(cluster.provisioned_machine_seconds(), 70.0);
}

// ---- elastic EC policy in the controller -----------------------------------

TEST(ElasticEcTest, ScalesUpUnderBacklogAndDownWhenIdle) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(1));
  core::ControllerConfig cfg;
  cfg.scheduler = core::SchedulerKind::kGreedy;
  cfg.estimator = core::EstimatorKind::kOracle;
  cfg.probe_interval = 0.0;
  cfg.ec_sites[0].uplink.base_rate = 5.0e6;
  cfg.ec_sites[0].uplink.per_connection_cap = 5.0e6;
  cfg.ec_sites[0].uplink.noise_sigma = 0.0;
  cfg.ec_sites[0].uplink.setup_latency = 0.0;
  cfg.ec_sites[0].downlink = cfg.ec_sites[0].uplink;
  cfg.bandwidth_estimator.prior_rate = 5.0e6;
  cfg.topology.ic_machines = 1;
  cfg.ec_sites[0].machines = 1;
  cfg.ec_sites[0].job_overhead_seconds = 0.0;
  cfg.elastic_ec.enabled = true;
  cfg.elastic_ec.max_machines = 4;
  cfg.elastic_ec.check_interval = 20.0;
  cfg.elastic_ec.boot_delay = 10.0;
  cfg.elastic_ec.grow_wait_threshold_seconds = 30.0;
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(2));

  // A single huge batch: IC (1 machine) clogs, greedy bursts heavily, the
  // 1-machine EC queues far beyond the grow threshold.
  workload::Batch batch;
  batch.batch_index = 0;
  for (int i = 0; i < 30; ++i) {
    workload::Document d;
    d.doc_id = static_cast<std::uint64_t>(i + 1);
    d.features.size_mb = 80.0;
    d.features.pages = 80;
    d.output_size_mb = 80.0;
    batch.documents.push_back(d);
  }
  ctl.on_batch(batch);
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_GT(ctl.scale_ups(), 0u);
  // By the end of the run the policy has either kept the extra capacity or
  // (more likely) released it once the queue drained.
  EXPECT_TRUE(ctl.ec_cluster().machine_count() > 1u || ctl.scale_downs() > 0u);
  // The elastic denominator integrates the provisioning level over time.
  EXPECT_GT(ctl.ec_cluster().provisioned_machine_seconds(),
            static_cast<double>(sim.now()));
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes()), "");
}

// ---- per-class QRSM -----------------------------------------------------------

TEST(PerClassQrsmTest, FallsBackToPooledWhenClassIsCold) {
  models::PerClassQrsmEstimator estimator;
  workload::Document d;
  d.features.type = workload::JobType::kBook;
  EXPECT_FALSE(estimator.class_active(workload::JobType::kBook));
  EXPECT_GT(estimator.estimate_seconds(d), 0.0);  // pooled floor answers
}

TEST(PerClassQrsmTest, ClassModelActivatesAfterEnoughObservations) {
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(3));
  workload::WorkloadGenerator gen({}, truth, RngStream(4));
  models::PerClassQrsmEstimator estimator({.min_class_observations = 60});
  // Stream until at least one class crosses the threshold.
  for (int i = 0; i < 900; ++i) {
    const auto d = gen.next();
    estimator.observe(d, truth.expected_seconds(d.features));
  }
  bool any_active = false;
  for (const auto type : workload::kAllJobTypes) {
    if (estimator.class_active(type)) any_active = true;
  }
  EXPECT_TRUE(any_active);
}

TEST(PerClassQrsmTest, PretrainSeedsAllModels) {
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(5));
  workload::WorkloadGenerator gen({}, truth, RngStream(6));
  models::PerClassQrsmEstimator estimator;
  const auto docs = gen.batch(300);
  std::vector<double> y;
  for (const auto& d : docs) y.push_back(truth.expected_seconds(d.features));
  estimator.pretrain(docs, y);
  EXPECT_TRUE(estimator.pooled().is_fitted());
  // Accuracy on held-out docs.
  workload::WorkloadGenerator held({}, truth, RngStream(7));
  for (int i = 0; i < 50; ++i) {
    const auto d = held.next();
    const double actual = truth.expected_seconds(d.features);
    EXPECT_NEAR(estimator.estimate_seconds(d), actual, 0.15 * actual + 8.0);
  }
}

TEST(PerClassQrsmTest, WorksAsControllerEstimator) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(8));
  auto cfg = core::default_controller_config(false);
  cfg.scheduler = core::SchedulerKind::kOrderPreserving;
  cfg.estimator = core::EstimatorKind::kPerClassQrsm;
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(9));
  workload::WorkloadGenerator gen({}, truth, RngStream(10));
  const auto docs = gen.batch(150);
  std::vector<double> y;
  for (const auto& d : docs) y.push_back(truth.sample_seconds(d.features));
  ctl.pretrain(docs, y);

  workload::Batch batch;
  batch.batch_index = 0;
  batch.documents = gen.batch(10);
  ctl.on_batch(batch);
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
}

// ---- position-aware chunking ---------------------------------------------

TEST(PositionAwareChunkingTest, TailJobsGetCoarserChunks) {
  // Two identical huge jobs at head and tail: the head one must split into
  // more chunks than the tail one.
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(11));
  models::OracleEstimator estimator(truth);
  net::BandwidthEstimator up({.slots_per_day = 1, .alpha = 0.3, .prior_rate = 1.0e6});
  net::BandwidthEstimator down = up;
  core::BeliefState belief(estimator, up, down, 4, 1.0, 2, 1.0);

  core::SchedulerParams params;
  params.variability_window = 4;
  params.variability_threshold_mb = 30.0;
  params.chunker.target_size_mb = 60.0;
  params.position_aware_chunking = true;
  params.tail_chunk_scale = 4.0;

  std::uint64_t next_seq = 1;
  std::uint64_t next_doc = 1000;
  core::Scheduler::Context ctx{
      .now = 0.0,
      .belief = belief,
      .params = params,
      .truth = truth,
      .next_seq = &next_seq,
      .next_doc_id = &next_doc,
      .ic_machines = 4,
  };

  auto make = [](std::uint64_t id, double mb) {
    workload::Document d;
    d.doc_id = id;
    d.features.size_mb = mb;
    d.features.pages = static_cast<int>(mb);
    d.output_size_mb = mb;
    return d;
  };
  core::OrderPreservingScheduler scheduler;
  const auto decisions = scheduler.schedule_batch(
      {make(1, 240.0), make(2, 5.0), make(3, 5.0), make(4, 5.0), make(5, 5.0),
       make(6, 5.0), make(7, 240.0)},
      ctx);

  int head_chunks = 0;
  int tail_chunks = 0;
  for (const auto& d : decisions) {
    if (d.doc.parent_id == 1) ++head_chunks;
    if (d.doc.parent_id == 7) ++tail_chunks;
  }
  EXPECT_GT(head_chunks, 1);
  EXPECT_GT(head_chunks, tail_chunks);
}

// ---- several EC sites under one controller ----------------------------------

core::ControllerConfig two_site_config() {
  core::ControllerConfig cfg;
  cfg.scheduler = core::SchedulerKind::kOrderPreserving;
  cfg.estimator = core::EstimatorKind::kOracle;
  cfg.topology.ic_machines = 2;
  cfg.params.slack_safety_margin = 0.0;
  cfg.probe_interval = 0.0;
  cfg.bandwidth_estimator.prior_rate = 1.0e6;

  core::EcSiteConfig fast;
  fast.name = "ec-fast";
  fast.machines = 2;
  fast.job_overhead_seconds = 0.0;
  fast.uplink.base_rate = 4.0e6;
  fast.uplink.per_connection_cap = 4.0e6;
  fast.uplink.noise_sigma = 0.0;
  fast.uplink.setup_latency = 0.0;
  fast.downlink = fast.uplink;

  core::EcSiteConfig slow = fast;
  slow.name = "ec-slow";
  slow.uplink.base_rate = 0.4e6;
  slow.uplink.per_connection_cap = 0.4e6;
  slow.downlink = slow.uplink;

  cfg.ec_sites = {fast, slow};
  return cfg;
}

/// Jobs bursted to each site over the run.
std::vector<std::size_t> bursts_per_site(const core::CloudBurstController& ctl) {
  std::vector<std::size_t> bursts;
  for (std::size_t i = 0; i < ctl.site_count(); ++i) {
    bursts.push_back(ctl.site(i).bursts);
  }
  return bursts;
}

workload::Batch big_batch(int n, double size_mb) {
  workload::Batch batch;
  batch.batch_index = 0;
  for (int i = 0; i < n; ++i) {
    workload::Document d;
    d.doc_id = static_cast<std::uint64_t>(i + 1);
    d.features.size_mb = size_mb;
    d.features.pages = static_cast<int>(size_mb);
    d.output_size_mb = size_mb;
    batch.documents.push_back(d);
  }
  return batch;
}

TEST(MultiCloudTest, CompletesAllJobsWithValidOutcomes) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(12));
  auto cfg = two_site_config();
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(13));
  ctl.on_batch(big_batch(20, 60.0));
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_EQ(ctl.outcomes().size(), 20u);
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes()), "");
}

TEST(MultiCloudTest, PrefersTheFasterProvider) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(14));
  core::CloudBurstController ctl(sim, two_site_config(), truth, RngStream(15));
  ctl.on_batch(big_batch(24, 60.0));
  sim.run();
  const auto bursts = bursts_per_site(ctl);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_GT(bursts[0] + bursts[1], 0u);
  EXPECT_GE(bursts[0], bursts[1]);  // the 10x faster pipe must win overall
}

TEST(MultiCloudTest, SpillsToSecondSiteWhenFirstSaturates) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(16));
  auto cfg = two_site_config();
  // Make both sites equal: load balancing should use both.
  cfg.ec_sites[1] = cfg.ec_sites[0];
  cfg.ec_sites[1].name = "ec-b";
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(17));
  ctl.on_batch(big_batch(30, 60.0));
  sim.run();
  const auto bursts = bursts_per_site(ctl);
  if (bursts[0] + bursts[1] >= 4) {
    EXPECT_GT(bursts[0], 0u);
    EXPECT_GT(bursts[1], 0u);
  }
}

TEST(MultiCloudTest, SurvivesNoisyPathsAndProbes) {
  Simulation sim;
  workload::GroundTruthModel truth({}, RngStream(40));  // noisy runtimes
  auto cfg = two_site_config();
  for (auto& site : cfg.ec_sites) {
    site.uplink.noise_sigma = 0.3;
    site.downlink.noise_sigma = 0.3;
  }
  cfg.probe_interval = 60.0;  // probing enabled on every site
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(41));
  ctl.on_batch(big_batch(20, 60.0));
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes()), "");
}

TEST(MultiCloudTest, DeterministicReplay) {
  auto run = [] {
    Simulation sim;
    workload::GroundTruthModel truth({}, RngStream(50));
    core::CloudBurstController ctl(sim, two_site_config(), truth,
                                   RngStream(51));
    ctl.on_batch(big_batch(16, 70.0));
    sim.run();
    std::vector<double> completions;
    for (const auto& o : ctl.outcomes()) completions.push_back(o.completed);
    return completions;
  };
  EXPECT_EQ(run(), run());
}

TEST(MultiCloudTest, SingleSiteDegeneratesToSingleEc) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(18));
  auto cfg = two_site_config();
  cfg.ec_sites.resize(1);
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(19));
  ctl.on_batch(big_batch(12, 60.0));
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_EQ(ctl.site_count(), 1u);
}

}  // namespace
