#pragma once

#include "core/scheduler.hpp"

namespace cbs::core {

/// Algorithm 2 — the Order Preserving scheduler: jobs should complete in
/// near-arrival order and no internal job should ever wait on a bursted
/// one. Two mechanisms:
///
///  1. *Variance-triggered chunking* (lines 3–10): while the standard
///     deviation of the next `variability_window` job sizes exceeds
///     `variability_threshold_mb`, the head job is pdfchunk()ed and the
///     chunks spliced into the list as ordinary jobs.
///  2. *Slack-gated bursting* (lines 11–16): a job is sent externally only
///     when its estimated round trip finishes within the cushion created
///     by the jobs ahead of it (Eq. 1–2) — so bursted jobs are never on
///     the believed critical path. With several EC sites, the round trip
///     tested is the one of the site with the earliest believed finish.
class OrderPreservingScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "order-preserving";
  }

  [[nodiscard]] std::vector<ScheduleDecision> schedule_batch(
      std::vector<cbs::workload::Document> docs, Context& ctx) override;
  [[nodiscard]] std::unique_ptr<Scheduler> clone() const override {
    return std::make_unique<OrderPreservingScheduler>();
  }

 protected:
  /// Placement for one job once chunking is settled; the bandwidth-split
  /// subclass overrides the upload-class choice by overriding this.
  [[nodiscard]] virtual ScheduleDecision place(
      const cbs::workload::Document& doc, Context& ctx);

  /// Runs Algorithm 2's chunking pass in place over the batch.
  static void apply_chunking(std::vector<cbs::workload::Document>& docs,
                             Context& ctx);
};

}  // namespace cbs::core
