#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/gram.h"
#include "ml/kernel.h"
#include "ml/svm.h"
#include "ml/svr.h"
#include "svm_reference.h"

namespace poiprivacy::ml {
namespace {

TEST(Matrix, PushRowDefinesShape) {
  Matrix m;
  m.push_row(std::vector<double>{1.0, 2.0, 3.0});
  m.push_row(std::vector<double>{4.0, 5.0, 6.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
  EXPECT_THROW(m.push_row(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Scaler, StandardizesToZeroMeanUnitVariance) {
  common::Rng rng(3);
  Matrix x(200, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = rng.normal(5.0, 2.0);
    x.at(i, 1) = rng.normal(-1.0, 0.1);
    x.at(i, 2) = 7.0;  // constant feature
  }
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  for (std::size_t j = 0; j < 2; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < 200; ++i) mean += z.at(i, j);
    mean /= 200.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    double var = 0.0;
    for (std::size_t i = 0; i < 200; ++i) {
      var += (z.at(i, j) - mean) * (z.at(i, j) - mean);
    }
    EXPECT_NEAR(var / 200.0, 1.0, 1e-9);
  }
  // The constant feature must not blow up.
  for (std::size_t i = 0; i < 200; ++i) EXPECT_DOUBLE_EQ(z.at(i, 2), 0.0);
}

TEST(Scaler, TransformRowMatchesTransform) {
  Matrix x(3, 2);
  x.at(0, 0) = 1.0;
  x.at(1, 0) = 2.0;
  x.at(2, 0) = 3.0;
  x.at(0, 1) = 10.0;
  x.at(1, 1) = 20.0;
  x.at(2, 1) = 30.0;
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  std::vector<double> row{2.0, 20.0};
  scaler.transform_row(row);
  EXPECT_NEAR(row[0], z.at(1, 0), 1e-12);
  EXPECT_NEAR(row[1], z.at(1, 1), 1e-12);
}

TEST(Split, PartitionsAllIndices) {
  common::Rng rng(5);
  const auto [train, test] = train_test_split(100, 0.25, rng);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.size(), 75u);
  std::vector<bool> seen(100, false);
  for (const auto i : train) seen[i] = true;
  for (const auto i : test) seen[i] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Metrics, AccuracyAndErrors) {
  const std::vector<int> truth{1, 0, 1, 1};
  const std::vector<int> pred{1, 1, 1, 0};
  EXPECT_DOUBLE_EQ(accuracy(truth, pred), 0.5);
  const std::vector<double> y{1.0, 2.0, 3.0};
  const std::vector<double> yhat{1.5, 2.0, 2.0};
  EXPECT_NEAR(mean_absolute_error(y, yhat), 0.5, 1e-12);
  EXPECT_NEAR(root_mean_squared_error(y, yhat),
              std::sqrt((0.25 + 0.0 + 1.0) / 3.0), 1e-12);
}

TEST(Metrics, OneHotEncoding) {
  std::vector<double> out;
  one_hot(2, 4, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 1.0, 0.0}));
  one_hot(0, 2, out);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_DOUBLE_EQ(out[4], 1.0);
}

TEST(Kernel, LinearAndRbfValues) {
  const std::vector<double> a{1.0, 0.0};
  const std::vector<double> b{0.0, 1.0};
  KernelParams linear{KernelKind::kLinear, -1.0};
  EXPECT_DOUBLE_EQ(kernel_value(linear, 1.0, a, a), 1.0);
  EXPECT_DOUBLE_EQ(kernel_value(linear, 1.0, a, b), 0.0);
  KernelParams rbf{KernelKind::kRbf, 0.5};
  EXPECT_DOUBLE_EQ(kernel_value(rbf, 0.5, a, a), 1.0);
  EXPECT_NEAR(kernel_value(rbf, 0.5, a, b), std::exp(-1.0), 1e-12);
}

TEST(Kernel, GammaScaleDefaultsToOneOverFeatures) {
  KernelParams params;  // gamma < 0 means scale
  EXPECT_DOUBLE_EQ(effective_gamma(params, 4), 0.25);
  params.gamma = 2.0;
  EXPECT_DOUBLE_EQ(effective_gamma(params, 4), 2.0);
}

Matrix blob_data(common::Rng& rng, std::vector<int>& labels, std::size_t n,
                 double separation) {
  Matrix x(n, 2);
  labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : -1;
    labels[i] = label;
    x.at(i, 0) = label * separation + rng.normal(0.0, 0.5);
    x.at(i, 1) = rng.normal(0.0, 0.5);
  }
  return x;
}

TEST(BinarySvm, SeparatesGaussianBlobs) {
  common::Rng rng(11);
  std::vector<int> labels;
  const Matrix x = blob_data(rng, labels, 200, 2.0);
  BinarySvm svm;
  SvmConfig config;
  svm.train(x, labels, config, rng);
  EXPECT_GT(svm.num_support_vectors(), 0u);
  std::size_t hits = 0;
  std::vector<int> test_labels;
  const Matrix x_test = blob_data(rng, test_labels, 200, 2.0);
  for (std::size_t i = 0; i < 200; ++i) {
    const int pred = svm.decision(x_test.row(i)) >= 0.0 ? 1 : -1;
    hits += pred == test_labels[i];
  }
  EXPECT_GT(hits, 190u);
}

TEST(BinarySvm, RbfSolvesXor) {
  // XOR is not linearly separable; RBF must handle it.
  common::Rng rng(13);
  Matrix x(200, 2);
  std::vector<int> labels(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const double a = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double b = rng.bernoulli(0.5) ? 1.0 : -1.0;
    x.at(i, 0) = a + rng.normal(0.0, 0.2);
    x.at(i, 1) = b + rng.normal(0.0, 0.2);
    labels[i] = a * b > 0 ? 1 : -1;
  }
  BinarySvm svm;
  SvmConfig config;
  config.kernel.gamma = 1.0;
  config.c = 10.0;
  svm.train(x, labels, config, rng);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    hits += (svm.decision(x.row(i)) >= 0.0 ? 1 : -1) == labels[i];
  }
  EXPECT_GT(hits, 190u);
}

TEST(BinarySvm, LinearKernelSolvesLinearProblem) {
  common::Rng rng(15);
  std::vector<int> labels;
  const Matrix x = blob_data(rng, labels, 150, 3.0);
  BinarySvm svm;
  SvmConfig config;
  config.kernel.kind = KernelKind::kLinear;
  svm.train(x, labels, config, rng);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 150; ++i) {
    hits += (svm.decision(x.row(i)) >= 0.0 ? 1 : -1) == labels[i];
  }
  EXPECT_GT(hits, 145u);
}

TEST(SvmClassifier, SingleClassPredictsThatClass) {
  common::Rng rng(17);
  Matrix x(10, 2);
  const std::vector<int> labels(10, 3);
  SvmClassifier clf;
  clf.train(x, labels, rng);
  EXPECT_EQ(clf.predict(x.row(0)), 3);
}

TEST(SvmClassifier, MultiClassBlobs) {
  common::Rng rng(19);
  const int k = 4;
  Matrix x(400, 2);
  std::vector<int> labels(400);
  for (std::size_t i = 0; i < 400; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, k - 1));
    labels[i] = label * 10;  // arbitrary label values
    const double angle = 2.0 * M_PI * label / k;
    x.at(i, 0) = 3.0 * std::cos(angle) + rng.normal(0.0, 0.4);
    x.at(i, 1) = 3.0 * std::sin(angle) + rng.normal(0.0, 0.4);
  }
  SvmClassifier clf;
  clf.train(x, labels, rng);
  EXPECT_EQ(clf.classes().size(), 4u);
  const std::vector<int> pred = clf.predict(x);
  EXPECT_GT(accuracy(labels, pred), 0.95);
}

TEST(SvmClassifier, DeterministicGivenSeed) {
  std::vector<int> labels;
  common::Rng data_rng(23);
  const Matrix x = blob_data(data_rng, labels, 100, 2.0);
  common::Rng rng_a(5);
  common::Rng rng_b(5);
  SvmClassifier a;
  SvmClassifier b;
  a.train(x, labels, rng_a);
  b.train(x, labels, rng_b);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(a.predict(x.row(i)), b.predict(x.row(i)));
  }
}

Matrix gaussian_rows(common::Rng& rng, std::size_t n, std::size_t d) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x.at(i, j) = rng.normal(0.0, 1.0);
  }
  return x;
}

TEST(GramMatrix, EntriesAndKernelRowMatchKernelValue) {
  common::Rng rng(31);
  const Matrix x = gaussian_rows(rng, 40, 5);
  const Matrix probes = gaussian_rows(rng, 6, 5);
  for (const KernelParams params :
       {KernelParams{KernelKind::kRbf, -1.0},
        KernelParams{KernelKind::kRbf, 0.7},
        KernelParams{KernelKind::kLinear, -1.0}}) {
    const GramMatrix gram(x, params);
    const double gamma = effective_gamma(params, x.cols());
    ASSERT_EQ(gram.size(), x.rows());
    ASSERT_EQ(gram.values().size(), x.rows() * x.rows());
    EXPECT_EQ(gram.basis().gamma(), gamma);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.rows(); ++j) {
        // Bit-equal: the builder calls kernel_value(x_i, x_j) for i <= j
        // and mirrors it.
        const std::size_t lo = std::min(i, j);
        const std::size_t hi = std::max(i, j);
        EXPECT_EQ(gram.values()[i * x.rows() + j],
                  kernel_value(params, gamma, x.row(lo), x.row(hi)) + 1.0);
      }
    }
    std::vector<double> k_row(gram.size());
    for (std::size_t p = 0; p < probes.rows(); ++p) {
      gram.kernel_row(probes.row(p), k_row);
      for (std::size_t i = 0; i < x.rows(); ++i) {
        EXPECT_EQ(k_row[i],
                  kernel_value(params, gamma, x.row(i), probes.row(p)) + 1.0);
      }
    }
    // A training row's kernel row is its Gram row.
    gram.kernel_row(x.row(3), k_row);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      EXPECT_EQ(k_row[i], gram.values()[3 * x.rows() + i]);
    }
  }
}

TEST(GramMatrix, RejectsTrainingSetsBeyondTheCap) {
  const Matrix x(GramMatrix::kMaxSamples + 1, 1);
  EXPECT_THROW(GramMatrix(x, KernelParams{}), std::invalid_argument);
}

TEST(BinarySvm, RejectsGramBuiltForAnotherKernel) {
  common::Rng rng(33);
  std::vector<int> labels;
  const Matrix x = blob_data(rng, labels, 20, 2.0);
  const GramMatrix gram(x, KernelParams{KernelKind::kLinear, -1.0});
  BinarySvm svm;
  EXPECT_THROW(svm.train(gram, labels, SvmConfig{}, rng),
               std::invalid_argument);
}

/// Four angular blobs with arbitrary label values.
Matrix multi_class_blobs(common::Rng& rng, std::vector<int>& labels,
                         std::size_t n) {
  const int k = 4;
  Matrix x(n, 2);
  labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, k - 1));
    labels[i] = label * 10;
    const double angle = 2.0 * M_PI * label / k;
    x.at(i, 0) = 3.0 * std::cos(angle) + rng.normal(0.0, 1.2);
    x.at(i, 1) = 3.0 * std::sin(angle) + rng.normal(0.0, 1.2);
  }
  return x;
}

TEST(SvmClassifier, SharedGramMatchesPerMachineReference) {
  common::Rng data_rng(37);
  std::vector<int> labels;
  const Matrix x = multi_class_blobs(data_rng, labels, 300);
  std::vector<int> test_labels;
  const Matrix x_test = multi_class_blobs(data_rng, test_labels, 100);
  // A second, two-class task on the same rows: the Gram matrix is shared
  // by two classifiers (5 machines), the reference builds it per machine.
  std::vector<int> binary_labels(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    binary_labels[i] = labels[i] >= 20 ? 7 : 3;
  }

  for (const KernelKind kind : {KernelKind::kRbf, KernelKind::kLinear}) {
    SvmConfig config;
    config.kernel.kind = kind;
    common::Rng rng(41);
    const GramMatrix gram(x, config.kernel);
    SvmClassifier multi(config);
    SvmClassifier binary(config);
    multi.train(gram, labels, rng);
    binary.train(gram, binary_labels, rng);

    common::Rng ref_rng(41);
    reference::SvmClassifier ref_multi(config);
    reference::SvmClassifier ref_binary(config);
    ref_multi.train(x, labels, ref_rng);
    ref_binary.train(x, binary_labels, ref_rng);

    const std::pair<const SvmClassifier*, const reference::SvmClassifier*>
        pairs[] = {{&multi, &ref_multi}, {&binary, &ref_binary}};
    for (const auto& [clf, ref] : pairs) {
      ASSERT_EQ(clf->machines().size(), ref->machines().size());
      for (std::size_t m = 0; m < clf->machines().size(); ++m) {
        EXPECT_EQ(clf->machines()[m].num_support_vectors(),
                  ref->machines()[m].num_support_vectors());
      }
      std::vector<double> k_row(gram.size());
      for (std::size_t i = 0; i < x_test.rows(); ++i) {
        gram.kernel_row(x_test.row(i), k_row);
        for (std::size_t m = 0; m < clf->machines().size(); ++m) {
          const double expected = ref->machines()[m].decision(x_test.row(i));
          EXPECT_EQ(clf->machines()[m].decision(x_test.row(i)), expected);
          EXPECT_EQ(clf->machines()[m].decision_from_kernel(k_row), expected);
        }
        EXPECT_EQ(clf->predict(x_test.row(i)), ref->predict(x_test.row(i)));
        EXPECT_EQ(clf->predict_from_kernel(k_row),
                  ref->predict(x_test.row(i)));
      }
    }
  }
}

TEST(Svr, FitsLinearFunction) {
  common::Rng rng(29);
  Matrix x(150, 1);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    x.at(i, 0) = rng.uniform(-2.0, 2.0);
    y[i] = 3.0 * x.at(i, 0) + 1.0 + rng.normal(0.0, 0.05);
  }
  SvrConfig config;
  config.kernel.kind = KernelKind::kLinear;
  config.epsilon = 0.1;
  Svr svr(config);
  svr.train(x, y, rng);
  std::vector<double> pred = svr.predict(x);
  EXPECT_LT(mean_absolute_error(y, pred), 0.2);
}

TEST(Svr, FitsSmoothNonlinearFunction) {
  common::Rng rng(31);
  Matrix x(250, 1);
  std::vector<double> y(250);
  for (std::size_t i = 0; i < 250; ++i) {
    x.at(i, 0) = rng.uniform(-3.0, 3.0);
    y[i] = std::sin(x.at(i, 0));
  }
  SvrConfig config;
  config.kernel.gamma = 1.0;
  config.c = 50.0;
  config.epsilon = 0.02;
  Svr svr(config);
  svr.train(x, y, rng);
  const std::vector<double> pred = svr.predict(x);
  EXPECT_LT(mean_absolute_error(y, pred), 0.1);
}

TEST(Svr, EmptyTrainingSetPredictsZero) {
  common::Rng rng(37);
  Svr svr;
  svr.train(Matrix(0, 0), std::vector<double>{}, rng);
  const std::vector<double> row{1.0, 2.0};
  EXPECT_DOUBLE_EQ(svr.predict(row), 0.0);
}

TEST(Svr, InsensitiveTubeLeavesFewSupportVectors) {
  // Constant target within the epsilon tube -> no support vectors needed.
  common::Rng rng(41);
  Matrix x(50, 1);
  std::vector<double> y(50, 0.0);
  for (std::size_t i = 0; i < 50; ++i) x.at(i, 0) = rng.uniform(-1.0, 1.0);
  SvrConfig config;
  config.epsilon = 0.5;
  Svr svr(config);
  svr.train(x, y, rng);
  EXPECT_EQ(svr.num_support_vectors(), 0u);
}

}  // namespace
}  // namespace poiprivacy::ml
