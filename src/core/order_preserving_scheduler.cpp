#include "core/order_preserving_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "sla/slack.hpp"
#include "stats/summary.hpp"
#include "workload/chunker.hpp"

namespace cbs::core {

void OrderPreservingScheduler::apply_chunking(
    std::vector<cbs::workload::Document>& docs, Context& ctx) {
  const auto window = static_cast<std::size_t>(ctx.params.variability_window);
  const std::size_t original_size = docs.size();

  std::size_t i = 0;
  while (i < docs.size()) {
    // §VII non-uniform chunking: the effective target grows toward the
    // tail of the batch, trading availability for per-chunk overhead.
    cbs::workload::PdfChunker::Config chunk_cfg = ctx.params.chunker;
    if (ctx.params.position_aware_chunking && original_size > 1) {
      const double frac = static_cast<double>(std::min(i, original_size - 1)) /
                          static_cast<double>(original_size - 1);
      chunk_cfg.target_size_mb *=
          1.0 + (ctx.params.tail_chunk_scale - 1.0) * frac;
    }
    const cbs::workload::PdfChunker chunker(chunk_cfg);

    // σ(i : i+x) over the sizes of the upcoming window (lines 4–5).
    std::vector<double> sizes;
    for (std::size_t k = i; k < std::min(docs.size(), i + window); ++k) {
      sizes.push_back(docs[k].features.size_mb);
    }
    const double sigma = cbs::stats::stddev_of(sizes);

    if (sigma > ctx.params.variability_threshold_mb && !docs[i].is_chunk() &&
        chunker.chunk_count_for(docs[i].features.size_mb) > 1) {
      // Lines 6–9: replace j_i by its chunks, spliced in order.
      auto chunks = chunker.chunk(docs[i], ctx.truth, ctx.next_doc_id);
      docs.erase(docs.begin() + static_cast<std::ptrdiff_t>(i));
      docs.insert(docs.begin() + static_cast<std::ptrdiff_t>(i),
                  chunks.begin(), chunks.end());
      // Do not advance: the first chunk is re-examined (and, being a chunk,
      // will not be re-split).
      continue;
    }
    ++i;
  }
}

ScheduleDecision OrderPreservingScheduler::place(
    const cbs::workload::Document& doc, Context& ctx) {
  // *Where*: the EC site with the earliest believed round trip (ties go to
  // the lowest index; the paper's setting has one site).
  EcEstimate ec = ctx.belief.ft_ec(doc, ctx.now);
  for (std::size_t site = 1; site < ctx.belief.ec_site_count(); ++site) {
    const EcEstimate other = ctx.belief.ft_ec(doc, ctx.now, site);
    if (other.finish < ec.finish) ec = other;
  }
  // Lines 11–16: burst exactly when the estimated external finish fits the
  // cushion of the jobs ahead.
  const cbs::sim::SimTime cushion = ctx.belief.slack(ctx.now);
  if (cbs::sla::satisfies_slack(ec.finish, cushion,
                                ctx.params.slack_safety_margin)) {
    return decide_ec(doc, ec, ctx);
  }
  return decide_ic(doc, ctx);
}

std::vector<ScheduleDecision> OrderPreservingScheduler::schedule_batch(
    std::vector<cbs::workload::Document> docs, Context& ctx) {
  apply_chunking(docs, ctx);
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    out.push_back(place(doc, ctx));
  }
  return out;
}

}  // namespace cbs::core
