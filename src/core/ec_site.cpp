#include "core/ec_site.hpp"

#include <string_view>

namespace cbs::core {

namespace {

cbs::sim::RngStream link_stream(const cbs::sim::RngStream& rng,
                                std::string_view name, std::size_t index) {
  const cbs::sim::RngStream stream = rng.substream(name);
  return index == 0 ? stream : stream.substream(index);
}

/// Bandwidth-split's size-interval upload queues (one slot each), or one
/// queue for every other scheduler.
bool size_interval_uploads(const ControllerConfig& config) {
  return config.scheduler == SchedulerKind::kBandwidthSplit ||
         config.admits_bandwidth_split;
}

}  // namespace

EcSite::EcSite(cbs::sim::Simulation& sim, const ControllerConfig& config,
               std::size_t index, const cbs::sim::RngStream& rng)
    : cluster(sim, config.ec_sites[index].name, config.ec_sites[index].machines,
              config.ec_sites[index].speed),
      runtime(sim, cluster),
      uplink(sim, config.ec_sites[index].uplink,
             link_stream(rng, "uplink", index)),
      downlink(sim, config.ec_sites[index].downlink,
               link_stream(rng, "downlink", index)),
      store(sim, config.store),
      uplink_estimator(config.bandwidth_estimator),
      downlink_estimator(config.bandwidth_estimator),
      up_tuner(config.thread_tuner),
      down_tuner(config.thread_tuner),
      upload_queues(sim, uplink, up_tuner,
                    size_interval_uploads(config)
                        ? config.params.size_interval_queues
                        : 1,
                    size_interval_uploads(config)
                        ? 1
                        : config.single_queue_upload_slots),
      download_queue(sim, downlink, down_tuner, 1, config.download_slots) {}

EcSite::EcSite(cbs::sim::Simulation& dst, const EcSite& src)
    : cluster(dst, src.cluster),
      runtime(dst, src.runtime, cluster),
      uplink(dst, src.uplink),
      downlink(dst, src.downlink),
      store(dst, src.store),
      uplink_estimator(src.uplink_estimator),
      downlink_estimator(src.downlink_estimator),
      up_tuner(src.up_tuner),
      down_tuner(src.down_tuner),
      upload_queues(dst, src.upload_queues, uplink, up_tuner),
      download_queue(dst, src.download_queue, downlink, down_tuner),
      bursts(src.bursts) {}

void EcSite::rebuild_events(cbs::sim::SnapshotContext& ctx) {
  uplink.rebuild_events(ctx);
  downlink.rebuild_events(ctx);
  cluster.rebuild_events(ctx);
  store.rebuild_events(ctx);
}

}  // namespace cbs::core
