#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <deque>
#include <new>
#include <utility>
#include <vector>

#include "linalg/least_squares.hpp"
#include "models/estimator.hpp"
#include "models/feature_vector.hpp"
#include "models/per_class_qrsm.hpp"
#include "models/qrsm.hpp"
#include "simcore/rng.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"

// Heap allocations made while `g_count_allocations` is set. The global
// operator new of this test binary is replaced to count them.
namespace {
bool g_count_allocations = false;
std::size_t g_allocations = 0;

// Out of line, so the compiler does not pair a delete it inlines with the
// malloc in operator new and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace cbs::models;
using cbs::sim::RngStream;
using cbs::workload::Document;
using cbs::workload::DocumentFeatures;
using cbs::workload::GroundTruthModel;
using cbs::workload::WorkloadGenerator;

// ---- feature extraction ---------------------------------------------------

TEST(FeatureVectorTest, ExtractRawOrderMatchesNames) {
  DocumentFeatures f;
  f.size_mb = 1.0;
  f.pages = 2;
  f.num_images = 3;
  f.avg_image_mb = 4.0;
  f.resolution_dpi = 5.0;
  f.color_fraction = 6.0;
  f.text_ratio = 7.0;
  f.coverage = 8.0;
  const auto raw = extract_raw(f);
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    EXPECT_DOUBLE_EQ(raw[i], static_cast<double>(i + 1));
  }
  EXPECT_EQ(feature_names().size(), kNumRawFeatures);
}

TEST(FeatureVectorTest, QuadraticDimFormula) {
  EXPECT_EQ(quadratic_dim(2), 1u + 2u + 1u + 2u);
  EXPECT_EQ(quadratic_dim(8), 1u + 8u + 28u + 8u);
}

TEST(FeatureVectorTest, QuadraticExpandLayout) {
  std::array<double, kNumRawFeatures> x{};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    x[i] = static_cast<double>(i + 1);
  }
  const auto row = quadratic_expand(x);
  ASSERT_EQ(row.size(), quadratic_dim(kNumRawFeatures));
  EXPECT_DOUBLE_EQ(row[0], 1.0);                    // intercept
  EXPECT_DOUBLE_EQ(row[1], 1.0);                    // x1
  EXPECT_DOUBLE_EQ(row[8], 8.0);                    // x8
  EXPECT_DOUBLE_EQ(row[9], 1.0 * 2.0);              // x1*x2
  EXPECT_DOUBLE_EQ(row[10], 1.0 * 3.0);             // x1*x3
  EXPECT_DOUBLE_EQ(row.back(), 8.0 * 8.0);          // x8^2
  EXPECT_DOUBLE_EQ(row[row.size() - kNumRawFeatures], 1.0);  // x1^2
}

TEST(FeatureVectorTest, ScalerStandardizes) {
  std::vector<std::array<double, kNumRawFeatures>> rows;
  for (int i = 0; i < 100; ++i) {
    std::array<double, kNumRawFeatures> r{};
    r[0] = static_cast<double>(i);  // varies
    r[1] = 5.0;                     // constant
    rows.push_back(r);
  }
  const auto scaler = FeatureScaler::fit(rows);
  EXPECT_NEAR(scaler.mean[0], 49.5, 1e-9);
  EXPECT_DOUBLE_EQ(scaler.scale[1], 1.0);  // constant features get scale 1
  const auto z = scaler.apply(rows[0]);
  EXPECT_LT(z[0], 0.0);  // below the mean
  EXPECT_DOUBLE_EQ(z[1], 0.0);
}

// ---- QrsmModel --------------------------------------------------------------

GroundTruthModel noiseless_truth() {
  GroundTruthModel::Config cfg;
  cfg.noise_sigma = 0.0;
  return GroundTruthModel(cfg, RngStream(1));
}

TEST(QrsmTest, RecoversNoiselessQuadraticLawExactly) {
  // Restricted to a single job class (constant type multiplier), the
  // ground-truth law is nearly quadratic in the raw features (one trilinear
  // term — size x resolution x color — is outside the model class), so a
  // QRSM fit on noiseless labels must be near-perfect.
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(2));
  std::vector<DocumentFeatures> feats;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    Document d = gen.next();
    d.features.type = cbs::workload::JobType::kMailCampaign;
    feats.push_back(d.features);
    y.push_back(truth.expected_seconds(d.features));
  }
  QrsmModel model({.ridge_lambda = 1e-8});
  model.fit(feats, y);
  ASSERT_TRUE(model.is_fitted());
  EXPECT_GT(model.last_fit()->r_squared, 0.995);

  WorkloadGenerator held_out({}, truth, RngStream(3));
  for (int i = 0; i < 100; ++i) {
    Document d = held_out.next();
    d.features.type = cbs::workload::JobType::kMailCampaign;
    const double actual = truth.expected_seconds(d.features);
    EXPECT_NEAR(model.predict(d.features), actual, 0.10 * actual + 6.0);
  }
}

TEST(QrsmTest, UnfittedFallsBackToBufferMean) {
  QrsmModel model;
  DocumentFeatures f;
  f.size_mb = 10.0;
  EXPECT_DOUBLE_EQ(model.predict(f), 1.0);  // min_prediction floor
  model.observe(f, 100.0);
  model.observe(f, 200.0);
  EXPECT_DOUBLE_EQ(model.predict(f), 150.0);
}

TEST(QrsmTest, PredictionClampedToFloor) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(4));
  std::vector<DocumentFeatures> feats;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    feats.push_back(gen.next().features);
    y.push_back(1.5);  // constant tiny label
  }
  QrsmModel model({.min_prediction_seconds = 5.0});
  model.fit(feats, y);
  DocumentFeatures f = feats[0];
  EXPECT_GE(model.predict(f), 5.0);
}

TEST(QrsmTest, OnlineRefitHappensAtInterval) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(5));
  QrsmModel model({.refit_interval = 16});
  // Below the data requirement: no fit yet, regardless of interval.
  for (int i = 0; i < 32; ++i) {
    const Document d = gen.next();
    model.observe(d.features, truth.expected_seconds(d.features));
  }
  EXPECT_FALSE(model.is_fitted());
  for (int i = 0; i < 64; ++i) {
    const Document d = gen.next();
    model.observe(d.features, truth.expected_seconds(d.features));
  }
  EXPECT_TRUE(model.is_fitted());
}

TEST(QrsmTest, WindowBoundsBuffer) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(6));
  QrsmModel model({.refit_interval = 1000000, .window = 50});
  for (int i = 0; i < 200; ++i) {
    const Document d = gen.next();
    model.observe(d.features, 1.0);
  }
  EXPECT_EQ(model.buffered(), 50u);
  EXPECT_EQ(model.observations(), 200u);
}

TEST(QrsmTest, AdaptsToRegimeChange) {
  // Labels double mid-stream; the windowed online fit must follow.
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(7));
  QrsmModel model({.refit_interval = 32, .window = 256});
  std::vector<Document> probe_docs;
  for (int i = 0; i < 20; ++i) probe_docs.push_back(gen.next());

  for (int i = 0; i < 300; ++i) {
    const Document d = gen.next();
    model.observe(d.features, truth.expected_seconds(d.features));
  }
  const double before = model.predict(probe_docs[0].features);
  for (int i = 0; i < 400; ++i) {
    const Document d = gen.next();
    model.observe(d.features, 2.0 * truth.expected_seconds(d.features));
  }
  const double after = model.predict(probe_docs[0].features);
  EXPECT_GT(after, 1.5 * before);
}

// ---- QrsmModel: sufficient-statistics refit vs a from-scratch reference ----

/// The textbook refit the model's incremental statistics must reproduce:
/// standardize the window, build the quadratic design matrix, solve by
/// ridge_least_squares. Keeps its own copy of the window.
class ReferenceQrsm {
 public:
  explicit ReferenceQrsm(QrsmModel::Config config) : config_(config) {}

  void observe(const DocumentFeatures& f, double y) {
    window_.push_back({extract_raw(f), y});
    if (config_.window > 0 && window_.size() > config_.window) window_.pop_front();
  }

  void refit() {
    std::vector<std::array<double, kNumRawFeatures>> raws;
    for (const auto& [raw, y] : window_) raws.push_back(raw);
    scaler_ = FeatureScaler::fit(raws);
    cbs::linalg::Matrix design(window_.size(), kQuadraticDim);
    cbs::linalg::Vector ys;
    for (std::size_t r = 0; r < window_.size(); ++r) {
      const auto row = quadratic_expand(scaler_.apply(window_[r].first));
      std::copy(row.begin(), row.end(), design.row_data(r));
      ys.push_back(window_[r].second);
    }
    fit_ = cbs::linalg::ridge_least_squares(design, ys, config_.ridge_lambda);
  }

  [[nodiscard]] double predict_raw(const DocumentFeatures& f) const {
    const auto row = quadratic_expand(scaler_.apply(extract_raw(f)));
    double acc = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) acc += row[j] * fit_.coefficients[j];
    return acc;
  }
  [[nodiscard]] double predict(const DocumentFeatures& f) const {
    return std::max(predict_raw(f), config_.min_prediction_seconds);
  }
  [[nodiscard]] const cbs::linalg::FitResult& fit() const { return fit_; }

 private:
  QrsmModel::Config config_;
  std::deque<std::pair<std::array<double, kNumRawFeatures>, double>> window_;
  FeatureScaler scaler_;
  cbs::linalg::FitResult fit_;
};

/// Noisy labels from the default ground truth, so the fit is not exact.
struct QrsmStream {
  GroundTruthModel truth{GroundTruthModel::Config{}, RngStream(11)};
  WorkloadGenerator gen{{}, truth, RngStream(12)};
  RngStream noise{13};

  std::pair<DocumentFeatures, double> next() {
    const Document d = gen.next();
    return {d.features, truth.expected_seconds(d.features) * noise.uniform(0.8, 1.2)};
  }
};

void expect_relative(double got, double want, double tol, const std::string& what) {
  EXPECT_LE(std::abs(got - want), tol * std::max(1.0, std::abs(want))) << what;
}

/// Streams `n` observations into a model and the reference side by side;
/// after every refit the model's predictions on fixed probes must match
/// the reference within `tol` relative. Returns the number of refits.
int compare_stream(QrsmModel& model, ReferenceQrsm& ref, QrsmStream& stream,
                   std::size_t n, std::size_t refit_interval, double tol) {
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 16; ++i) probes.push_back(stream.next().first);
  int refits = 0;
  const std::size_t min_rows = kQuadraticDim + kQuadraticDim / 4;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    ref.observe(f, y);
    if ((i + 1) % refit_interval != 0 || model.buffered() < min_rows) continue;
    ref.refit();
    ++refits;
    for (const auto& p : probes) {
      expect_relative(model.predict(p), ref.predict(p), tol,
                      "observation " + std::to_string(i));
    }
    EXPECT_NEAR(model.last_fit()->r_squared, ref.fit().r_squared, 1e-9);
    EXPECT_NEAR(model.last_fit()->mape, ref.fit().mape, 1e-9);
    expect_relative(model.last_fit()->rmse, ref.fit().rmse, 1e-9, "rmse");
  }
  return refits;
}

TEST(QrsmIncrementalTest, MatchesFromScratchRefitOverWindowTurnovers) {
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmModel model(cfg);
  ReferenceQrsm ref(cfg);
  QrsmStream stream;
  // 6 turnovers of the window: the statistics are updated incrementally,
  // rebuilt every 256 updates, and mapped into each refit's frame.
  const int refits = compare_stream(model, ref, stream, 6 * 256 + 40, 32, 1e-9);
  EXPECT_GE(refits, 40);
}

TEST(QrsmIncrementalTest, UnboundedWindow) {
  const QrsmModel::Config cfg{.refit_interval = 40, .window = 0};
  QrsmModel model(cfg);
  ReferenceQrsm ref(cfg);
  QrsmStream stream;
  compare_stream(model, ref, stream, 1200, 40, 1e-9);
  EXPECT_EQ(model.buffered(), 1200u);
}

TEST(QrsmIncrementalTest, WindowNotAMultipleOfRefitInterval) {
  const QrsmModel::Config cfg{.refit_interval = 48, .window = 200};
  QrsmModel model(cfg);
  ReferenceQrsm ref(cfg);
  QrsmStream stream;
  compare_stream(model, ref, stream, 5 * 200 + 17, 48, 1e-9);
}

TEST(QrsmIncrementalTest, ExplicitRefitBetweenIntervals) {
  const QrsmModel::Config cfg{.refit_interval = 64, .window = 128};
  QrsmModel model(cfg);
  ReferenceQrsm ref(cfg);
  QrsmStream stream;
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(stream.next().first);
  for (int i = 0; i < 700; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    ref.observe(f, y);
    if (i > 100 && i % 37 == 36) {  // off the 64-observation cadence
      model.refit();
      ref.refit();
      for (const auto& p : probes) {
        expect_relative(model.predict(p), ref.predict(p), 1e-9, "step " + std::to_string(i));
      }
    }
  }
}

TEST(QrsmIncrementalTest, CorpusFitIsBitIdenticalToDesignMatrixFit) {
  // fit() builds the statistics from scratch in the window's own frame, so
  // the solve sees exactly the design-matrix Gram: same bits, not just close.
  QrsmStream stream;
  std::vector<DocumentFeatures> feats;
  std::vector<double> ys;
  ReferenceQrsm ref(QrsmModel::Config{});
  for (int i = 0; i < 300; ++i) {
    const auto [f, y] = stream.next();
    feats.push_back(f);
    ys.push_back(y);
    ref.observe(f, y);
  }
  QrsmModel model;
  model.fit(feats, ys);
  ref.refit();
  ASSERT_TRUE(model.is_fitted());
  EXPECT_EQ(model.last_fit()->coefficients, ref.fit().coefficients);
  EXPECT_EQ(model.last_fit()->r_squared, ref.fit().r_squared);
  EXPECT_EQ(model.last_fit()->rmse, ref.fit().rmse);
  EXPECT_EQ(model.last_fit()->mape, ref.fit().mape);
  EXPECT_FALSE(model.last_fit()->used_qr_fallback);
  for (const auto& f : feats) EXPECT_EQ(model.predict(f), ref.predict(f));
}

TEST(QrsmIncrementalTest, CopyTakenMidStreamContinuesIdentically) {
  // The fork case: a copy carries the statistics, reference frame and
  // rebuild countdown, so both continue bit for bit.
  QrsmModel model({.refit_interval = 32, .window = 256});
  QrsmStream stream;
  for (int i = 0; i < 300; ++i) {  // mid-way between rebuilds
    const auto [f, y] = stream.next();
    model.observe(f, y);
  }
  QrsmModel fork = model;
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(stream.next().first);
  for (int i = 0; i < 800; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    fork.observe(f, y);
    if (i % 32 == 31) {
      for (const auto& p : probes) ASSERT_EQ(model.predict(p), fork.predict(p));
    }
  }
  EXPECT_EQ(model.last_fit()->coefficients, fork.last_fit()->coefficients);
  EXPECT_EQ(model.last_fit()->r_squared, fork.last_fit()->r_squared);
}

// ---- QrsmModel: fit quality computed on the first read after a refit ------

TEST(QrsmLazyQualityTest, LateReadMatchesDesignMatrixOverTheRefitWindow) {
  // Window 64, refit every 32: fit() builds the statistics from the corpus,
  // the refit 32 observations later updates them incrementally, and the
  // one 64 observations later rebuilds them, so that refit solves exactly
  // the design-matrix system. Its quality, read 0, 1 or 31 observations
  // later (rows of its window evicted meanwhile), must be the reference's
  // bit for bit.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 64};
  QrsmStream stream;
  ReferenceQrsm ref(cfg);
  std::vector<DocumentFeatures> feats;
  std::vector<double> ys;
  for (int i = 0; i < 64; ++i) {
    const auto [f, y] = stream.next();
    feats.push_back(f);
    ys.push_back(y);
    ref.observe(f, y);
  }
  QrsmModel model(cfg);
  model.fit(feats, ys);
  for (int i = 0; i < 64; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    ref.observe(f, y);
  }
  ref.refit();
  for (const std::size_t later : {0U, 1U, 31U}) {
    QrsmModel m = model;  // quality still pending
    for (std::size_t k = 0; k < later; ++k) {
      const auto [f, y] = stream.next();
      m.observe(f, y);
    }
    EXPECT_EQ(m.buffered(), 64U);
    EXPECT_EQ(m.stored_rows(), 64U + later) << "evicted rows kept for the read";
    ASSERT_TRUE(m.last_fit().has_value());
    EXPECT_EQ(m.last_fit()->coefficients, ref.fit().coefficients) << later;
    EXPECT_EQ(m.last_fit()->r_squared, ref.fit().r_squared) << later;
    EXPECT_EQ(m.last_fit()->rmse, ref.fit().rmse) << later;
    EXPECT_EQ(m.last_fit()->mape, ref.fit().mape) << later;
    // Once read, the next eviction releases the kept rows.
    const auto [f, y] = stream.next();
    m.observe(f, y);
    EXPECT_EQ(m.stored_rows(), 64U);
  }
}

TEST(QrsmLazyQualityTest, CopyWhilePendingReadsIdenticalValues) {
  QrsmModel model({.refit_interval = 32, .window = 256});
  QrsmStream stream;
  for (int i = 0; i < 300; ++i) {  // refit at 288, then 12 evictions
    const auto [f, y] = stream.next();
    model.observe(f, y);
  }
  QrsmModel copy = model;
  for (int i = 0; i < 10; ++i) {  // the original moves on, short of a refit
    const auto [f, y] = stream.next();
    model.observe(f, y);
  }
  ASSERT_TRUE(copy.last_fit().has_value());
  ASSERT_TRUE(model.last_fit().has_value());
  EXPECT_EQ(copy.last_fit()->coefficients, model.last_fit()->coefficients);
  EXPECT_EQ(copy.last_fit()->r_squared, model.last_fit()->r_squared);
  EXPECT_EQ(copy.last_fit()->rmse, model.last_fit()->rmse);
  EXPECT_EQ(copy.last_fit()->mape, model.last_fit()->mape);
}

TEST(QrsmLazyQualityTest, WindowTooSmallToFitKeepsABoundedBuffer) {
  // 40 rows never reach the 56 a quadratic fit needs: every refit fails,
  // and nothing is kept beyond the window.
  QrsmModel model({.refit_interval = 8, .window = 40});
  QrsmStream stream;
  for (int i = 0; i < 500; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    ASSERT_LE(model.stored_rows(), 40U) << "observation " << i;
  }
  EXPECT_FALSE(model.is_fitted());
  EXPECT_FALSE(model.last_fit().has_value());
  EXPECT_EQ(model.buffered(), 40U);
}

TEST(QrsmLazyQualityTest, UnreadQualityKeepsAtMostOneRefitIntervalOfRows) {
  QrsmModel model({.refit_interval = 32, .window = 128});
  QrsmStream stream;
  for (int i = 0; i < 2000; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    ASSERT_LE(model.stored_rows(), 128U + 32U) << "observation " << i;
  }
  EXPECT_EQ(model.buffered(), 128U);
}

// ---- QrsmModel: deferred fold vs an eager rank-1 reference ----------------

/// The refit as it runs without deferral or kernels: every observation
/// updates S = Σφφᵀ and b = Σφy at once, row by row (one rank-1 update per
/// new and per evicted row, skipping a zero φᵢ and a zero y), with the
/// model's rebuild rule and reference frame, the change of frame T·S·Tᵀ,
/// and a textbook Cholesky. All scalar loops, so the model's blocked
/// kernels must reproduce its coefficients bit for bit.
class EagerQrsm {
 public:
  explicit EagerQrsm(QrsmModel::Config config) : config_(config) {}

  void observe(const DocumentFeatures& f, double y) {
    window_.push_back({extract_raw(f), y});
    if (has_frame_) {
      accumulate(window_.back(), 1.0);
      ++updates_since_rebuild_;
    }
    if (config_.window > 0 && window_.size() > config_.window) {
      if (has_frame_) accumulate(window_.front(), -1.0);
      window_.pop_front();
    }
    if (++since_refit_ >= config_.refit_interval) refit();
  }

  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coefficients_;
  }
  [[nodiscard]] double predict(const DocumentFeatures& f) const {
    const auto row = quadratic_expand(scaler_.apply(extract_raw(f)));
    double acc = 0.0;
    for (std::size_t j = 0; j < kDim; ++j) acc += row[j] * coefficients_[j];
    return std::max(acc, config_.min_prediction_seconds);
  }

 private:
  using Raw = std::array<double, kNumRawFeatures>;
  struct Row {
    Raw raw;
    double y;
  };
  static constexpr std::size_t kDim = kQuadraticDim;

  void accumulate(const Row& r, double sign) {
    const auto phi = quadratic_expand(frame_.apply(r.raw));
    for (std::size_t i = 0; i < kDim; ++i) {
      if (phi[i] == 0.0) continue;
      const double a = sign * phi[i];
      for (std::size_t j = i; j < kDim; ++j) xtx_[i][j] += a * phi[j];
    }
    if (r.y == 0.0) return;
    for (std::size_t c = 0; c < kDim; ++c) xty_[c] += phi[c] * (sign * r.y);
  }

  /// FeatureScaler::fit, one scalar sum per feature.
  [[nodiscard]] FeatureScaler fit_scaler() const {
    FeatureScaler sc;
    const auto n = static_cast<double>(window_.size());
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
      double sum = 0.0;
      for (const Row& r : window_) sum += r.raw[i];
      sc.mean[i] = sum / n;
      double var = 0.0;
      for (const Row& r : window_) {
        var += (r.raw[i] - sc.mean[i]) * (r.raw[i] - sc.mean[i]);
      }
      const double sd = std::sqrt(var / n);
      sc.scale[i] = sd > 1e-12 ? sd : 1.0;
    }
    return sc;
  }

  void refit() {
    since_refit_ = 0;
    if (window_.size() < kDim + kDim / 4) return;
    scaler_ = fit_scaler();
    if (!has_frame_ || updates_since_rebuild_ >= rows_at_rebuild_) {
      frame_ = scaler_;
      xtx_ = {};
      xty_ = {};
      for (const Row& r : window_) accumulate(r, 1.0);
      has_frame_ = true;
      rows_at_rebuild_ = window_.size();
      updates_since_rebuild_ = 0;
    }
    solve();
  }

  /// T with φ(αu + β) = T·φ(u), as (column, coefficient) terms per row in
  /// quadratic_expand's layout.
  using Terms = std::vector<std::pair<std::size_t, double>>;
  [[nodiscard]] std::vector<Terms> frame_map() const {
    constexpr std::size_t n = kNumRawFeatures;
    Raw al{};
    Raw be{};
    for (std::size_t i = 0; i < n; ++i) {
      al[i] = frame_.scale[i] / scaler_.scale[i];
      be[i] = (frame_.mean[i] - scaler_.mean[i]) / scaler_.scale[i];
    }
    std::vector<Terms> t;
    t.push_back({{0, 1.0}});
    for (std::size_t i = 0; i < n; ++i) {
      t.push_back({{1 + i, al[i]}, {0, be[i]}});
    }
    std::size_t cross = 1 + n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        t.push_back({{cross++, al[i] * al[j]},
                     {1 + i, al[i] * be[j]},
                     {1 + j, be[i] * al[j]},
                     {0, be[i] * be[j]}});
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      t.push_back({{cross + i, al[i] * al[i]},
                   {1 + i, 2.0 * al[i] * be[i]},
                   {0, be[i] * be[i]}});
    }
    return t;
  }

  void solve() {
    const auto t = frame_map();
    std::vector<std::vector<double>> full(kDim, std::vector<double>(kDim));
    for (std::size_t a = 0; a < kDim; ++a)
      for (std::size_t b = a; b < kDim; ++b) {
        full[a][b] = full[b][a] = xtx_[a][b];
      }
    std::vector<std::vector<double>> m(kDim, std::vector<double>(kDim, 0.0));
    for (std::size_t p = 0; p < kDim; ++p)
      for (const auto& [col, w] : t[p])
        for (std::size_t b = 0; b < kDim; ++b) m[p][b] += w * full[col][b];
    std::vector<std::vector<double>> g(kDim, std::vector<double>(kDim));
    std::vector<double> c(kDim, 0.0);
    for (std::size_t p = 0; p < kDim; ++p) {
      for (std::size_t q = p; q < kDim; ++q) {
        double acc = 0.0;
        for (const auto& [col, w] : t[q]) acc += w * m[p][col];
        g[p][q] = g[q][p] = acc;
      }
      for (const auto& [col, w] : t[p]) c[p] += w * xty_[col];
    }
    for (std::size_t i = 0; i < kDim; ++i) g[i][i] += config_.ridge_lambda;
    // Column-oriented Cholesky, then forward and back substitution.
    std::vector<std::vector<double>> l(kDim, std::vector<double>(kDim, 0.0));
    for (std::size_t j = 0; j < kDim; ++j) {
      double diag = g[j][j];
      for (std::size_t k = 0; k < j; ++k) diag -= l[j][k] * l[j][k];
      ASSERT_GT(diag, 0.0) << "reference Cholesky failed";
      l[j][j] = std::sqrt(diag);
      for (std::size_t i = j + 1; i < kDim; ++i) {
        double s = g[i][j];
        for (std::size_t k = 0; k < j; ++k) s -= l[i][k] * l[j][k];
        l[i][j] = s / l[j][j];
      }
    }
    std::vector<double> y(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      double s = c[i];
      for (std::size_t k = 0; k < i; ++k) s -= l[i][k] * y[k];
      y[i] = s / l[i][i];
    }
    coefficients_.assign(kDim, 0.0);
    for (std::size_t i = kDim; i-- > 0;) {
      double s = y[i];
      for (std::size_t k = i + 1; k < kDim; ++k) {
        s -= l[k][i] * coefficients_[k];
      }
      coefficients_[i] = s / l[i][i];
    }
  }

  QrsmModel::Config config_;
  std::deque<Row> window_;
  std::size_t since_refit_ = 0;
  FeatureScaler scaler_;
  bool has_frame_ = false;
  FeatureScaler frame_;
  std::size_t rows_at_rebuild_ = 0;
  std::size_t updates_since_rebuild_ = 0;
  std::array<std::array<double, kDim>, kDim> xtx_{};
  std::array<double, kDim> xty_{};
  std::vector<double> coefficients_;
};

/// Streams `n` observations, transformed by `edit`, into the model and the
/// eager reference; after every refit their coefficients and predictions
/// on fixed probes must be equal. Returns the number of refits compared.
template <typename Edit>
int expect_matches_eager(QrsmModel& model, EagerQrsm& eager, QrsmStream& stream,
                         std::size_t n, Edit edit) {
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(stream.next().first);
  int refits = 0;
  std::size_t last_observations = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto [f, y] = stream.next();
    edit(f, y);
    model.observe(f, y);
    eager.observe(f, y);
    if (!model.is_fitted() || eager.coefficients().empty()) continue;
    if (model.observations() % 32 != 0 ||
        model.observations() == last_observations) {
      continue;
    }
    last_observations = model.observations();
    ++refits;
    EXPECT_EQ(model.last_fit()->coefficients, eager.coefficients())
        << "observation " << i;
    for (const auto& p : probes) EXPECT_EQ(model.predict(p), eager.predict(p));
  }
  return refits;
}

TEST(QrsmDeferredFoldTest, ConstantFeatureColumnMatchesEagerReference) {
  // A constant raw feature standardizes to 0 on every row, so its linear,
  // square and cross terms are φᵢ == 0 on every row: the fold skips them.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmModel model(cfg);
  EagerQrsm eager(cfg);
  QrsmStream stream;
  const int refits = expect_matches_eager(model, eager, stream, 1500,
                                          [](DocumentFeatures& f, double&) {
                                            f.resolution_dpi = 300.0;
                                          });
  EXPECT_GE(refits, 40);
}

TEST(QrsmDeferredFoldTest, ZeroRuntimeRowsMatchEagerReference) {
  // y == 0 rows add nothing to b (skipped) but still enter S.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmModel model(cfg);
  EagerQrsm eager(cfg);
  QrsmStream stream;
  int k = 0;
  const int refits = expect_matches_eager(model, eager, stream, 1500,
                                          [&k](DocumentFeatures&, double& y) {
                                            if (++k % 5 == 0) y = 0.0;
                                          });
  EXPECT_GE(refits, 40);
}

TEST(QrsmDeferredFoldTest, IntervalAboveHalfThePendingStoreFoldsEarly) {
  // 48 observations between refits record 96 signed rows once the window
  // is full: the store folds when it holds kMaxPendingRows, mid-interval.
  const QrsmModel::Config cfg{.refit_interval = 48, .window = 200};
  QrsmModel model(cfg);
  EagerQrsm eager(cfg);
  QrsmStream stream;
  std::size_t max_pending = 0;
  expect_matches_eager(model, eager, stream, 1500,
                       [&](DocumentFeatures&, double&) {
                         max_pending =
                             std::max(max_pending, model.pending_rows());
                       });
  EXPECT_EQ(max_pending, QrsmModel::kMaxPendingRows);
}

TEST(QrsmDeferredFoldTest, CopyWithPendingRowsContinuesIdentically) {
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmModel model(cfg);
  EagerQrsm eager(cfg);
  QrsmStream stream;
  for (int i = 0; i < 288 + 5; ++i) {  // 5 observations past the refit at 288
    const auto [f, y] = stream.next();
    model.observe(f, y);
    eager.observe(f, y);
  }
  ASSERT_EQ(model.pending_rows(), 10U) << "5 new rows and 5 evicted ones";
  QrsmModel copy = model;
  EXPECT_EQ(copy.pending_rows(), 10U);
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(stream.next().first);
  for (int i = 0; i < 700; ++i) {
    const auto [f, y] = stream.next();
    model.observe(f, y);
    copy.observe(f, y);
    eager.observe(f, y);
    if (model.observations() % 32 != 0) continue;
    ASSERT_EQ(copy.last_fit()->coefficients, eager.coefficients()) << i;
    ASSERT_EQ(model.last_fit()->coefficients, eager.coefficients()) << i;
    for (const auto& p : probes) ASSERT_EQ(copy.predict(p), model.predict(p));
  }
}

TEST(QrsmDeferredFoldTest, PendingRowsNeverExceedTwoRefitIntervals) {
  for (const std::size_t interval : {1U, 8U, 32U}) {
    QrsmModel model({.refit_interval = interval, .window = 128});
    QrsmStream stream;
    std::size_t max_pending = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto [f, y] = stream.next();
      model.observe(f, y);
      ASSERT_LE(model.pending_rows(), 2 * interval) << "observation " << i;
      max_pending = std::max(max_pending, model.pending_rows());
    }
    // Just before each refit: one new and one evicted row per observation
    // (the refit itself runs inside the interval's last observe).
    EXPECT_EQ(max_pending, 2 * (interval - 1)) << interval;
  }
}

/// Allocations made by `f()`.
template <typename F>
std::size_t allocations_in(F f) {
  g_allocations = 0;
  g_count_allocations = true;
  f();
  g_count_allocations = false;
  return g_allocations;
}

TEST(QrsmDeferredFoldTest, RefitAllocatesNothing) {
  // Refits only when asked, so each path can be timed on its own.
  QrsmModel model({.refit_interval = 100000, .window = 256});
  QrsmStream stream;
  const auto observe = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto [f, y] = stream.next();
      model.observe(f, y);
    }
  };
  observe(300);
  model.refit();  // first fit: builds the statistics, sizes the coefficients
  ASSERT_TRUE(model.is_fitted());
  observe(10);
  ASSERT_EQ(model.pending_rows(), 20U);
  EXPECT_EQ(allocations_in([&] { model.refit(); }), 0U) << "fold and solve";
  EXPECT_EQ(model.pending_rows(), 0U);
  observe(256);  // 256 updates since the rebuild: the next refit rebuilds
  EXPECT_EQ(allocations_in([&] { model.refit(); }), 0U) << "rebuild and solve";
  EXPECT_EQ(model.pending_rows(), 0U);
  QrsmModel copy;
  EXPECT_GT(allocations_in([&] { copy = model; }), 0U) << "a copy (fork) does";
  EXPECT_EQ(copy.last_fit()->coefficients, model.last_fit()->coefficients);

  // After the copy both share a refit table: the first of them to refit on
  // the same rows stores the refit, the second reuses it, and a refit on
  // other rows stores another. None of the three allocates.
  std::vector<std::pair<DocumentFeatures, double>> rows;
  for (int i = 0; i < 20; ++i) rows.push_back(stream.next());
  for (std::size_t i = 0; i < 10; ++i) {
    model.observe(rows[i].first, rows[i].second);
    copy.observe(rows[i].first, rows[i].second);
  }
  EXPECT_EQ(allocations_in([&] { model.refit(); }), 0U) << "a miss";
  EXPECT_EQ(allocations_in([&] { copy.refit(); }), 0U) << "a hit";
  EXPECT_EQ(copy.memo_stats().hits, 1U);
  for (std::size_t i = 10; i < 20; ++i) {
    copy.observe(rows[i].first, rows[i].second);
  }
  EXPECT_EQ(allocations_in([&] { copy.refit(); }), 0U) << "a miss after a copy";
  EXPECT_EQ(copy.memo_stats().lookups, 3U);
  EXPECT_EQ(copy.memo_stats().hits, 1U);
}

// ---- QrsmModel: refits shared by forks -------------------------------------

using Row = std::pair<DocumentFeatures, double>;

std::vector<Row> draw_rows(QrsmStream& stream, std::size_t n) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) rows.push_back(stream.next());
  return rows;
}

/// Each prediction's bits, so equal means bit-identical (−0 ≠ +0).
std::vector<std::uint64_t> prediction_bits(
    const QrsmModel& model, const std::vector<DocumentFeatures>& probes) {
  std::vector<std::uint64_t> bits;
  for (const auto& p : probes) {
    bits.push_back(std::bit_cast<std::uint64_t>(model.predict(p)));
  }
  return bits;
}

/// memcmp of two models' coefficients and of their predictions' bits.
void expect_bit_identical(const QrsmModel& a, const QrsmModel& b,
                          const std::vector<DocumentFeatures>& probes,
                          const std::string& what) {
  ASSERT_TRUE(a.last_fit().has_value()) << what;
  ASSERT_TRUE(b.last_fit().has_value()) << what;
  const auto& ca = a.last_fit()->coefficients;
  const auto& cb = b.last_fit()->coefficients;
  ASSERT_EQ(ca.size(), cb.size()) << what;
  EXPECT_EQ(std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)), 0)
      << what;
  EXPECT_EQ(prediction_bits(a, probes), prediction_bits(b, probes)) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.last_fit()->r_squared),
            std::bit_cast<std::uint64_t>(b.last_fit()->r_squared))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.last_fit()->mape),
            std::bit_cast<std::uint64_t>(b.last_fit()->mape))
      << what;
}

TEST(QrsmRefitMemoTest, HitEqualsAFreshRefit) {
  // `forked` shares a table with `model`, and for 60 observations refits
  // only after `model` has refit on the same rows: its refits at 256 (a
  // rebuild: the 512-row window is filling and has doubled) and at 288 (a
  // fold) are hits. `fresh` is never copied and recomputes every refit.
  // Then `model` stops and `forked` goes on alone for 500 observations:
  // its refit at 320 folds into the statistics, frame and rebuild count
  // the hits restored.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 512};
  QrsmStream stream;
  const std::vector<Row> head = draw_rows(stream, 240);
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 100; ++i) probes.push_back(stream.next().first);
  const std::vector<Row> shared = draw_rows(stream, 60);
  const std::vector<Row> alone = draw_rows(stream, 500);

  QrsmModel model(cfg);
  QrsmModel fresh(cfg);
  for (const auto& [f, y] : head) {
    model.observe(f, y);
    fresh.observe(f, y);
  }
  QrsmModel forked = model;
  for (const auto& [f, y] : shared) {
    model.observe(f, y);
    forked.observe(f, y);
    fresh.observe(f, y);
    if (forked.observations() == 256) {
      expect_bit_identical(forked, fresh, probes, "the rebuild hit");
    }
  }
  EXPECT_EQ(forked.memo_stats().lookups, 4U) << "2 refits each";
  EXPECT_EQ(forked.memo_stats().hits, 2U);
  EXPECT_EQ(fresh.memo_stats().lookups, 0U) << "never copied: no table";
  expect_bit_identical(forked, fresh, probes, "the fold hit");
  expect_bit_identical(model, fresh, probes, "the fold miss");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(forked.last_fit()->rmse),
            std::bit_cast<std::uint64_t>(fresh.last_fit()->rmse));

  for (const auto& [f, y] : alone) {
    forked.observe(f, y);
    fresh.observe(f, y);
    if (forked.observations() == 320) {
      expect_bit_identical(forked, fresh, probes, "a fold after the hits");
    }
  }
  EXPECT_EQ(forked.memo_stats().hits, 2U) << "no hits alone";
  expect_bit_identical(forked, fresh, probes, "500 observations on");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(forked.last_fit()->rmse),
            std::bit_cast<std::uint64_t>(fresh.last_fit()->rmse));
}

TEST(QrsmRefitMemoTest, ARowDifferingInItsLastBitMisses) {
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmStream stream;
  const std::vector<Row> head = draw_rows(stream, 300);
  std::vector<Row> next = draw_rows(stream, 20);  // 300 + 20 reaches a refit
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 100; ++i) probes.push_back(stream.next().first);

  QrsmModel model(cfg);
  QrsmModel fresh(cfg);
  for (const auto& [f, y] : head) {
    model.observe(f, y);
    fresh.observe(f, y);
  }
  QrsmModel forked = model;
  for (const auto& [f, y] : next) model.observe(f, y);
  ASSERT_EQ(model.memo_stats().lookups, 1U);
  next.back().second = std::nextafter(next.back().second,
                                      std::numeric_limits<double>::infinity());
  for (const auto& [f, y] : next) {
    forked.observe(f, y);
    fresh.observe(f, y);
  }
  EXPECT_EQ(forked.memo_stats().lookups, 2U);
  EXPECT_EQ(forked.memo_stats().hits, 0U);
  EXPECT_EQ(forked.memo_stats().entries, 2U);
  expect_bit_identical(forked, fresh, probes, "the differing row's refit");
}

TEST(QrsmRefitMemoTest, IndependentModelsNeverShareATable) {
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmStream stream;
  const std::vector<Row> head = draw_rows(stream, 300);
  const std::vector<Row> next = draw_rows(stream, 20);
  QrsmModel a(cfg);
  QrsmModel b(cfg);
  for (const auto& [f, y] : head) {
    a.observe(f, y);
    b.observe(f, y);
  }
  EXPECT_EQ(a.memo_stats().entries + a.memo_stats().lookups, 0U)
      << "a model never copied has no table";
  const QrsmModel a_copy = a;
  const QrsmModel b_copy = b;
  for (const auto& [f, y] : next) a.observe(f, y);
  for (const auto& [f, y] : next) b.observe(f, y);
  // Same history, but b's refit found nothing: a's table is not b's.
  EXPECT_EQ(a.memo_stats().lookups, 1U);
  EXPECT_EQ(b.memo_stats().lookups, 1U);
  EXPECT_EQ(b.memo_stats().hits, 0U);
  EXPECT_EQ(a_copy.memo_stats().lookups, 1U) << "a copy shares its source's";

  // A copy taken before the first refit has nothing to share yet.
  QrsmModel blank(cfg);
  QrsmModel blank_copy = blank;
  for (const auto& [f, y] : head) {
    blank.observe(f, y);
    blank_copy.observe(f, y);
  }
  EXPECT_EQ(blank.memo_stats().lookups + blank_copy.memo_stats().lookups, 0U);
}

TEST(QrsmRefitMemoTest, FitStartsANewState) {
  // The copy is taken just after a refit, so it and the original key their
  // next refits on the same 32 rows; but fit() replaced the original's
  // window, so the copy's stored refit is not the original's.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmStream stream;
  const std::vector<Row> head = draw_rows(stream, 320);
  const std::vector<Row> corpus = draw_rows(stream, 100);
  const std::vector<Row> next = draw_rows(stream, 32);
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 100; ++i) probes.push_back(stream.next().first);
  std::vector<DocumentFeatures> feats;
  std::vector<double> ys;
  for (const auto& [f, y] : corpus) {
    feats.push_back(f);
    ys.push_back(y);
  }

  QrsmModel model(cfg);
  for (const auto& [f, y] : head) model.observe(f, y);  // refits at 320
  QrsmModel copy = model;
  model.fit(feats, ys);
  QrsmModel fresh(cfg);
  fresh.fit(feats, ys);
  for (const auto& [f, y] : next) copy.observe(f, y);
  for (const auto& [f, y] : next) model.observe(f, y);
  for (const auto& [f, y] : next) fresh.observe(f, y);
  EXPECT_EQ(model.memo_stats().lookups, 2U);
  EXPECT_EQ(model.memo_stats().hits, 0U);
  expect_bit_identical(model, fresh, probes, "refit after fit()");
}

TEST(QrsmRefitMemoTest, AnEarlyRefitStillAdvancesTheState) {
  // After fit() on 10 rows, the refit 32 observations later has too few
  // rows and returns early. Two copies that saw different rows before it
  // and the same rows after it are in different states at the next refit.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmStream stream;
  std::vector<DocumentFeatures> feats;
  std::vector<double> ys;
  for (const auto& [f, y] : draw_rows(stream, 10)) {
    feats.push_back(f);
    ys.push_back(y);
  }
  const std::vector<Row> first_a = draw_rows(stream, 32);
  const std::vector<Row> first_b = draw_rows(stream, 32);
  const std::vector<Row> same = draw_rows(stream, 32);
  std::vector<DocumentFeatures> probes;
  for (int i = 0; i < 100; ++i) probes.push_back(stream.next().first);

  QrsmModel a(cfg);
  for (const auto& [f, y] : draw_rows(stream, 100)) a.observe(f, y);
  const QrsmModel source = a;  // gives `a` a table
  a.fit(feats, ys);
  QrsmModel b = a;
  QrsmModel fresh(cfg);
  fresh.fit(feats, ys);
  for (const auto& [f, y] : first_a) a.observe(f, y);
  for (const auto& [f, y] : first_b) b.observe(f, y);
  for (const auto& [f, y] : first_b) fresh.observe(f, y);
  ASSERT_EQ(b.buffered(), 42U) << "too few rows: the refit returned early";
  for (const auto& [f, y] : same) a.observe(f, y);
  for (const auto& [f, y] : same) b.observe(f, y);
  for (const auto& [f, y] : same) fresh.observe(f, y);
  EXPECT_EQ(b.memo_stats().lookups, 2U);
  EXPECT_EQ(b.memo_stats().hits, 0U);
  expect_bit_identical(b, fresh, probes, "b after its own rows");
}

TEST(QrsmRefitMemoTest, TableStaysAtItsCapacityAfterManyForks) {
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 256};
  QrsmStream stream;
  QrsmModel parent(cfg);
  for (const auto& [f, y] : draw_rows(stream, 300)) parent.observe(f, y);
  const std::vector<Row> next = draw_rows(stream, 20);
  for (std::size_t fork = 0; fork < 4 * QrsmModel::kMemoCapacity; ++fork) {
    QrsmModel rollout = parent;
    for (const auto& [f, y] : draw_rows(stream, 20)) rollout.observe(f, y);
    EXPECT_LE(parent.memo_stats().entries, QrsmModel::kMemoCapacity);
  }
  EXPECT_EQ(parent.memo_stats().entries, QrsmModel::kMemoCapacity);
  EXPECT_EQ(parent.memo_stats().lookups, 4 * QrsmModel::kMemoCapacity);
  EXPECT_EQ(parent.memo_stats().hits, 0U);
  // The oldest entries went first: the parent's own next refit still
  // works, and a fork replaying it finds the stored refit.
  QrsmModel replay = parent;
  for (const auto& [f, y] : next) parent.observe(f, y);
  for (const auto& [f, y] : next) replay.observe(f, y);
  EXPECT_EQ(parent.memo_stats().hits, 1U);
  EXPECT_EQ(parent.memo_stats().entries, QrsmModel::kMemoCapacity);
  EXPECT_EQ(replay.last_fit()->coefficients, parent.last_fit()->coefficients);
}

TEST(QrsmIncrementalTest, PerClassEstimatorTracksReferencePerClass) {
  PerClassQrsmEstimator::Config cfg;
  cfg.model = {.refit_interval = 32, .window = 256};
  cfg.min_class_observations = 80;
  PerClassQrsmEstimator estimator(cfg);
  ReferenceQrsm pooled(cfg.model);
  std::vector<ReferenceQrsm> per_class(cbs::workload::kAllJobTypes.size(),
                                       ReferenceQrsm(cfg.model));
  std::vector<std::size_t> counts(cbs::workload::kAllJobTypes.size(), 0);
  QrsmStream stream;
  for (int i = 0; i < 2000; ++i) {
    Document d = stream.gen.next();
    const double y = stream.truth.expected_seconds(d.features) * stream.noise.uniform(0.8, 1.2);
    estimator.observe(d, y);
    pooled.observe(d.features, y);
    const auto k = static_cast<std::size_t>(d.features.type);
    per_class[k].observe(d.features, y);
    ++counts[k];
  }
  // Refit copies of the models and the references on the same windows.
  const DocumentFeatures probe = stream.next().first;
  pooled.refit();
  QrsmModel pooled_model = estimator.pooled();
  pooled_model.refit();
  expect_relative(pooled_model.predict(probe), pooled.predict(probe), 1e-9, "pooled");
  for (const auto type : cbs::workload::kAllJobTypes) {
    const auto k = static_cast<std::size_t>(type);
    if (counts[k] < kQuadraticDim + kQuadraticDim / 4) continue;
    QrsmModel m = estimator.class_model(type);
    m.refit();
    per_class[k].refit();
    DocumentFeatures f = probe;
    f.type = type;
    expect_relative(m.predict(f), per_class[k].predict(f), 1e-9,
                    "class " + std::to_string(k));
  }
}

// ---- estimators --------------------------------------------------------------

TEST(EstimatorTest, OracleReturnsExpectation) {
  const auto truth = noiseless_truth();
  OracleEstimator oracle(truth);
  Document d;
  d.features.size_mb = 120.0;
  EXPECT_DOUBLE_EQ(oracle.estimate_seconds(d),
                   truth.expected_seconds(d.features));
}

TEST(EstimatorTest, BiasedEstimatorScales) {
  const auto truth = noiseless_truth();
  auto biased = BiasedEstimator(std::make_unique<OracleEstimator>(truth), 1.5);
  Document d;
  d.features.size_mb = 100.0;
  EXPECT_DOUBLE_EQ(biased.estimate_seconds(d),
                   1.5 * truth.expected_seconds(d.features));
}

TEST(EstimatorTest, QrsmEstimatorLearnsFromObserve) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(8));
  QrsmEstimator estimator({.refit_interval = 32});
  for (int i = 0; i < 200; ++i) {
    const Document d = gen.next();
    estimator.observe(d, truth.expected_seconds(d.features));
  }
  EXPECT_TRUE(estimator.model().is_fitted());
  const Document probe = gen.next();
  const double actual = truth.expected_seconds(probe.features);
  EXPECT_NEAR(estimator.estimate_seconds(probe), actual, 0.1 * actual + 1.0);
}

}  // namespace
