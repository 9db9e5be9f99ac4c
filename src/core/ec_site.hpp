#pragma once

#include <cstddef>

#include "compute/cluster.hpp"
#include "compute/job_store.hpp"
#include "compute/mapreduce.hpp"
#include "core/config.hpp"
#include "core/upload_queues.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/snapshot.hpp"

namespace cbs::core {

/// One external cloud provider's substrate (the EC half of Fig. 5): its
/// cluster and MapReduce runtime, its own pipe each way with the EWMA
/// estimator and thread tuner that learn it, the upload/download queues
/// feeding the pipe, and the staging store. The controller builds one per
/// ControllerConfig::ec_sites entry and wires the hooks; the site holds no
/// reference back to the controller. The queue sets hold references to the
/// site's links and tuners, so a site never moves once built.
struct EcSite {
  /// Site `index` of `config.ec_sites`. Site 0's links draw from
  /// rng.substream("uplink") / ("downlink"); site i > 0 from substream i
  /// of those.
  EcSite(cbs::sim::Simulation& sim, const ControllerConfig& config,
         std::size_t index, const cbs::sim::RngStream& rng);
  EcSite(const EcSite&) = delete;
  EcSite& operator=(const EcSite&) = delete;

  /// Fork support: value-clones the substrate bound to `dst`. The queue
  /// sets register on the cloned links first, as in the primary
  /// constructor, so link handler slots line up; the controller then
  /// re-registers its own handlers (probes, store continuations).
  EcSite(cbs::sim::Simulation& dst, const EcSite& src);

  /// Re-schedules this site's pending events after a fork.
  void rebuild_events(cbs::sim::SnapshotContext& ctx);

  compute::Cluster cluster;
  compute::MapReduceRuntime runtime;
  net::Link uplink;
  net::Link downlink;
  compute::JobStore store;
  net::BandwidthEstimator uplink_estimator;
  net::BandwidthEstimator downlink_estimator;
  net::ThreadTuner up_tuner;
  net::ThreadTuner down_tuner;
  TransferQueueSet upload_queues;
  TransferQueueSet download_queue;

  // Dispatch slots the controller registers (the forkable event paths).
  // cbs-lint: snapshot-complete-ok(controller re-registers in order; asserted)
  int store_input_slot = -1;   ///< JobStore continuation: input staged
  // cbs-lint: snapshot-complete-ok(controller re-registers in order; asserted)
  int store_output_slot = -1;  ///< JobStore continuation: output staged
  // cbs-lint: snapshot-complete-ok(controller re-registers in order; asserted)
  int probe_up_slot = -1;      ///< uplink handler for probe transfers
  // cbs-lint: snapshot-complete-ok(controller re-registers in order; asserted)
  int probe_down_slot = -1;    ///< downlink handler for probe transfers

  std::size_t bursts = 0;  ///< jobs admitted to this site over the run
};

}  // namespace cbs::core
