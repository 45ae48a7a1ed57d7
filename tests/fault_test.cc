// Fault-injection, deadline/cancellation, and graceful-degradation tests
// (docs/ROBUSTNESS.md): the failpoint registry itself, thread-pool fault
// containment, hardened CSV ingest, surfaced degraded-solve statistics,
// the SVDD→exact-expansion fallback (with its Theorem 1/3 invariants
// against reference DBSCAN), and a sweep arming every registered site one
// at a time through the full fit → save → load → assign pipeline.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_options.h"
#include "cluster/dbscan.h"
#include "common/csv.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/dbsvec.h"
#include "data/synthetic.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "model/dbsvec_model.h"
#include "serve/assignment_engine.h"
#include "svm/kernel_cache.h"
#include "svm/smo_solver.h"
#include "svm/svdd.h"
#include "test_util.h"

namespace dbsvec {
namespace {

using Mode = FailpointRegistry::Mode;

/// All tests run against the process-wide registry, so every test starts
/// and ends disarmed and with the default thread budget.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    SetGlobalThreads(0);
  }

  FailpointRegistry& registry() { return FailpointRegistry::Instance(); }
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// Three well-separated Gaussian blobs plus noise: big enough that DBSVEC
/// actually trains SVDD spheres, small enough for a per-site sweep.
Dataset FaultScene() {
  GaussianBlobsParams gen;
  gen.n = 500;
  gen.dim = 2;
  gen.num_clusters = 3;
  gen.stddev = 1.0;
  gen.noise_fraction = 0.05;
  gen.seed = 99;
  return GenerateGaussianBlobs(gen);
}

DbsvecParams SceneParams(const Dataset& dataset) {
  DbsvecParams params;
  params.min_pts = 5;
  params.epsilon = SuggestEpsilon(dataset, params.min_pts);
  return params;
}

Clustering DbscanReference(const Dataset& dataset,
                           const DbsvecParams& params) {
  DbscanParams exact;
  exact.epsilon = params.epsilon;
  exact.min_pts = params.min_pts;
  Clustering out;
  EXPECT_TRUE(RunDbscan(dataset, exact, &out).ok());
  return out;
}

// ---------------------------------------------------------------------------
// Failpoint registry.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, SitesCoverEveryInstrumentedLayer) {
  const std::vector<std::string_view> sites = FailpointRegistry::Sites();
  const std::vector<std::string_view> expected = {
      "csv.read",      "index.build",   "exec.shard_merge",
      "kernel_cache.materialize",
      "smo.solve",     "svdd.train",    "svdd.budget_merge",
      "thread_pool.task",
      "model.save",    "model.load",    "assign.batch",
      "server.accept", "server.reload", "serve.refresh",
      "journal.append", "journal.fsync",
      "registry.create", "registry.recover",
  };
  EXPECT_EQ(sites.size(), expected.size());
  for (const std::string_view site : expected) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << "missing site: " << site;
  }
}

TEST_F(FaultTest, ArmingUnknownSiteIsAnError) {
  const Status status = registry().Arm("no.such.site", Mode::kError);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("no.such.site"), std::string::npos);
}

TEST_F(FaultTest, ErrorModeFiresAndDisarms) {
  EXPECT_TRUE(FailpointCheck("csv.read").ok());  // Disarmed: inert.
  EXPECT_EQ(registry().HitCount("csv.read"), 0u);

  ASSERT_TRUE(registry().Arm("csv.read", Mode::kError).ok());
  const Status fired = FailpointCheck("csv.read");
  EXPECT_EQ(fired.code(), Status::Code::kInternal);
  EXPECT_EQ(fired.message(), "failpoint fired: csv.read");
  EXPECT_EQ(registry().HitCount("csv.read"), 1u);

  registry().Disarm("csv.read");
  EXPECT_TRUE(FailpointCheck("csv.read").ok());
}

TEST_F(FaultTest, ErrorModeSelectsStatusCode) {
  const std::map<std::string, Status::Code> codes = {
      {"io", Status::Code::kIoError},
      {"invalid_argument", Status::Code::kInvalidArgument},
      {"deadline_exceeded", Status::Code::kDeadlineExceeded},
      {"resource_exhausted", Status::Code::kResourceExhausted},
  };
  for (const auto& [name, code] : codes) {
    registry().DisarmAll();
    ASSERT_TRUE(registry().Arm("model.save", Mode::kError, name).ok());
    EXPECT_EQ(FailpointCheck("model.save").code(), code) << name;
  }
}

TEST_F(FaultTest, ArmSpecParsesCommaSeparatedEntries) {
  ASSERT_TRUE(
      registry().ArmSpec("smo.solve:nonconverge,model.save:error:io").ok());
  EXPECT_TRUE(FailpointNonconverge("smo.solve"));
  EXPECT_EQ(FailpointCheck("model.save").code(), Status::Code::kIoError);
  // Checking a site armed with a self-interpreted mode stays OK.
  EXPECT_TRUE(FailpointCheck("smo.solve").ok());
}

TEST_F(FaultTest, ArmSpecRejectsMalformedEntries) {
  EXPECT_FALSE(registry().ArmSpec("smo.solve").ok());           // No mode.
  EXPECT_FALSE(registry().ArmSpec("smo.solve:bogus").ok());     // Bad mode.
  EXPECT_FALSE(registry().ArmSpec("no.such.site:error").ok());  // Bad site.
  EXPECT_FALSE(registry().ArmSpec("smo.solve:delay_ms").ok());  // Missing arg.
  EXPECT_FALSE(registry().ArmSpec("smo.solve:delay_ms:x").ok());
  EXPECT_FALSE(registry().ArmSpec("model.save:error:bogus_code").ok());
}

TEST_F(FaultTest, DelayModeSleepsThenProceeds) {
  ASSERT_TRUE(registry().ArmSpec("csv.read:delay_ms:20").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(FailpointCheck("csv.read").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            15);
  EXPECT_EQ(registry().HitCount("csv.read"), 1u);
}

TEST_F(FaultTest, DisarmAllResetsHitCounters) {
  ASSERT_TRUE(registry().Arm("svdd.train", Mode::kNonconverge).ok());
  EXPECT_TRUE(FailpointNonconverge("svdd.train"));
  EXPECT_EQ(registry().HitCount("svdd.train"), 1u);
  registry().DisarmAll();
  EXPECT_FALSE(FailpointNonconverge("svdd.train"));
  EXPECT_EQ(registry().HitCount("svdd.train"), 0u);
}

// ---------------------------------------------------------------------------
// Deadline / cancellation primitives.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DefaultDeadlineIsUnlimited) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.unlimited());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_TRUE(deadline.Check("anything").ok());
}

TEST_F(FaultTest, ExpiredDeadlineNamesTheOperation) {
  const Deadline deadline = Deadline::After(-1.0);
  EXPECT_FALSE(deadline.unlimited());
  EXPECT_TRUE(deadline.Expired());
  const Status status = deadline.Check("seed scan");
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(status.message(), "seed scan: deadline exceeded");
}

TEST_F(FaultTest, TimeBudgetEventuallyExpires) {
  const Deadline deadline = Deadline::AfterMillis(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(deadline.Expired());
}

TEST_F(FaultTest, CancelFlagTripsTheDeadline) {
  CancelFlag cancel;
  const Deadline deadline = Deadline::Cancellable(cancel);
  EXPECT_FALSE(deadline.unlimited());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_TRUE(deadline.Check("fit").ok());
  cancel.Cancel();  // Copies alias the same flag.
  EXPECT_TRUE(deadline.Expired());
  const Status status = deadline.Check("fit");
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(status.message(), "fit: cancelled");
}

// ---------------------------------------------------------------------------
// Thread-pool fault containment.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ExecuteContainsExceptionsAndStaysReusable) {
  SetGlobalThreads(4);
  ThreadPool* pool = GlobalThreadPool();
  ASSERT_NE(pool, nullptr);
  std::atomic<int> ran{0};
  try {
    pool->Execute(16, [&](int i) {
      ++ran;
      if (i == 5 || i == 11) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "expected the captured exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");  // Lowest task index wins, not schedule.
  }
  EXPECT_EQ(ran.load(), 16);  // A failure does not cancel remaining tasks.

  std::atomic<int> sum{0};
  pool->Execute(8, [&](int i) { sum += i; });  // Pool survived the job.
  EXPECT_EQ(sum.load(), 28);
}

TEST_F(FaultTest, ExecuteWithStatusReportsLowestFailingTask) {
  SetGlobalThreads(4);
  ThreadPool* pool = GlobalThreadPool();
  ASSERT_NE(pool, nullptr);
  std::atomic<int> ran{0};
  const Status status = pool->ExecuteWithStatus(16, [&](int i) {
    ++ran;
    return i >= 3 ? Status::Internal(std::to_string(i)) : Status::Ok();
  });
  EXPECT_EQ(status.code(), Status::Code::kInternal);
  EXPECT_EQ(status.message(), "3");
  EXPECT_EQ(ran.load(), 16);
}

TEST_F(FaultTest, ExecuteWithStatusContainsExceptions) {
  SetGlobalThreads(4);
  ThreadPool* pool = GlobalThreadPool();
  ASSERT_NE(pool, nullptr);
  const Status status = pool->ExecuteWithStatus(4, [](int i) -> Status {
    if (i == 2) {
      throw std::runtime_error("boom");
    }
    return Status::Ok();
  });
  EXPECT_EQ(status.code(), Status::Code::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST_F(FaultTest, ParallelForWithStatusReportsLowestFailingChunk) {
  SetGlobalThreads(4);
  const Status status =
      ParallelForWithStatus(64, 1, [](size_t begin, size_t) {
        return Status::Internal(std::to_string(begin));
      });
  EXPECT_EQ(status.code(), Status::Code::kInternal);
  EXPECT_EQ(status.message(), "0");
}

TEST_F(FaultTest, TaskFailpointFiresIdenticallyAtEveryThreadCount) {
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    registry().DisarmAll();
    ASSERT_TRUE(registry().ArmSpec("thread_pool.task:error").ok());
    const Status status =
        ParallelForWithStatus(64, 1, [](size_t, size_t) {
          return Status::Ok();
        });
    EXPECT_EQ(status.code(), Status::Code::kInternal) << threads;
    EXPECT_EQ(status.message(), "failpoint fired: thread_pool.task")
        << threads;
    EXPECT_GE(registry().HitCount("thread_pool.task"), 1u);
  }
}

// ---------------------------------------------------------------------------
// Hardened CSV ingest.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CsvRejectsNonFiniteValuesNamingTheLine) {
  const std::string path = TempPath("fault_nonfinite.csv");
  WriteTextFile(path, "0,1\n2,inf\n");
  Dataset dataset(1);
  const Status status = ReadCsv(path, false, &dataset, nullptr);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST_F(FaultTest, CsvRejectsNonNumericFieldsNamingTheLine) {
  const std::string path = TempPath("fault_nonnumeric.csv");
  WriteTextFile(path, "0,1\nfoo,2\n");
  Dataset dataset(1);
  const Status status = ReadCsv(path, false, &dataset, nullptr);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("non-numeric"), std::string::npos);
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST_F(FaultTest, CsvRejectsRaggedRowsNamingTheLine) {
  const std::string path = TempPath("fault_ragged.csv");
  WriteTextFile(path, "0,1\n2\n");
  Dataset dataset(1);
  const Status status = ReadCsv(path, false, &dataset, nullptr);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("ragged row"), std::string::npos);
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST_F(FaultTest, CsvCorruptionIsCaughtByIngestValidation) {
  const std::string path = TempPath("fault_corrupt.csv");
  WriteTextFile(path, "0,1\n2,3\n");
  ASSERT_TRUE(registry().ArmSpec("csv.read:corrupt").ok());
  Dataset dataset(1);
  const Status status = ReadCsv(path, false, &dataset, nullptr);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
}

TEST_F(FaultTest, RunDbsvecRejectsNonFiniteCoordinates) {
  Dataset dataset(2, {0.0, 0.0, std::nan(""), 1.0, 2.0, 2.0});
  DbsvecParams params;
  params.epsilon = 1.0;
  Clustering out;
  EXPECT_EQ(RunDbsvec(dataset, params, &out).code(),
            Status::Code::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Degraded solves surfaced: infeasible caps, rescaling, nonconvergence.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, SmoInfeasibleCapsMessagePinned) {
  Dataset dataset(1, {0.0, 1.0, 2.0, 3.0});
  const std::vector<PointIndex> target = {0, 1, 2, 3};
  KernelCache cache(dataset, target, /*sigma=*/1.0);
  const std::vector<double> bounds(4, 0.1);  // Σ caps = 0.4 < 1.
  SmoSolution solution;
  const Status status =
      SmoSolver::Solve(&cache, bounds, SmoOptions(), &solution);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(status.message(), "SMO: infeasible problem, sum of upper bounds < 1");
}

TEST_F(FaultTest, SvddSurfacesCapRescaling) {
  const Dataset dataset = testing::RandomDataset(12, 2, 1.0, 5);
  std::vector<PointIndex> target(12);
  std::iota(target.begin(), target.end(), 0);

  SvddParams params;
  params.c = 0.01;  // Σ ω_iC = 0.12 < 1: infeasible, must be scaled up.
  SvddModel model;
  ASSERT_TRUE(Svdd::Train(dataset, target, params, &model).ok());
  EXPECT_TRUE(model.caps_rescaled());

  params.c = 1.0;  // Feasible caps: no rescue needed.
  ASSERT_TRUE(Svdd::Train(dataset, target, params, &model).ok());
  EXPECT_FALSE(model.caps_rescaled());
}

TEST_F(FaultTest, NonconvergeFailpointYieldsFeasibleButUnconvergedSolve) {
  const Dataset dataset = testing::RandomDataset(30, 2, 1.0, 5);
  std::vector<PointIndex> target(30);
  std::iota(target.begin(), target.end(), 0);
  SvddParams params;
  params.nu = 0.5;

  ASSERT_TRUE(registry().ArmSpec("smo.solve:nonconverge").ok());
  SvddModel model;
  ASSERT_TRUE(Svdd::Train(dataset, target, params, &model).ok());
  EXPECT_FALSE(model.converged());
  EXPECT_FALSE(model.degenerate());  // Still a valid feasible sphere.
}

TEST_F(FaultTest, CorruptFailpointYieldsDegenerateSphere) {
  const Dataset dataset = testing::RandomDataset(30, 2, 1.0, 5);
  std::vector<PointIndex> target(30);
  std::iota(target.begin(), target.end(), 0);
  SvddParams params;
  params.nu = 0.5;

  ASSERT_TRUE(registry().ArmSpec("svdd.train:corrupt").ok());
  SvddModel model;
  ASSERT_TRUE(Svdd::Train(dataset, target, params, &model).ok());
  EXPECT_TRUE(model.degenerate());
}

// ---------------------------------------------------------------------------
// Graceful SVDD degradation inside RunDbsvec.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, TrainFailureDegradesToExactExpansion) {
  const Dataset dataset = FaultScene();
  const DbsvecParams params = SceneParams(dataset);

  // Precondition: the healthy run actually trains SVDD spheres, so the
  // armed run below exercises the degradation path rather than skipping it.
  Clustering healthy;
  ASSERT_TRUE(RunDbsvec(dataset, params, &healthy).ok());
  ASSERT_GT(healthy.stats.num_svdd_trainings, 0u);
  ASSERT_EQ(healthy.stats.num_svdd_fallbacks, 0u);

  ASSERT_TRUE(registry().ArmSpec("svdd.train:error").ok());
  Clustering degraded;
  ASSERT_TRUE(RunDbsvec(dataset, params, &degraded).ok());
  EXPECT_GT(degraded.stats.num_svdd_fallbacks, 0u);
  EXPECT_EQ(degraded.stats.num_svdd_trainings, 0u);

  // Theorem 1 + 3: with every sub-cluster expanded exactly, the result is
  // the reference DBSCAN partition (identical noise set included).
  const Clustering reference = DbscanReference(dataset, params);
  EXPECT_TRUE(testing::SamePartition(degraded.labels, reference.labels));
}

TEST_F(FaultTest, SolverAndKernelFaultsDegradeTheSameWay) {
  const Dataset dataset = FaultScene();
  const DbsvecParams params = SceneParams(dataset);
  const Clustering reference = DbscanReference(dataset, params);

  for (const std::string spec :
       {"smo.solve:error", "kernel_cache.materialize:error"}) {
    registry().DisarmAll();
    ASSERT_TRUE(registry().ArmSpec(spec).ok());
    Clustering degraded;
    ASSERT_TRUE(RunDbsvec(dataset, params, &degraded).ok()) << spec;
    EXPECT_GT(degraded.stats.num_svdd_fallbacks, 0u) << spec;
    EXPECT_TRUE(testing::SamePartition(degraded.labels, reference.labels))
        << spec;
  }
}

TEST_F(FaultTest, NonconvergedSolvesAreCountedAndDegradeGracefully) {
  const Dataset dataset = FaultScene();
  const DbsvecParams params = SceneParams(dataset);

  ASSERT_TRUE(registry().ArmSpec("smo.solve:nonconverge").ok());
  Clustering degraded;
  ASSERT_TRUE(RunDbsvec(dataset, params, &degraded).ok());
  EXPECT_GT(degraded.stats.num_nonconverged_solves, 0u);
  EXPECT_GT(degraded.stats.num_svdd_fallbacks, 0u);

  const Clustering reference = DbscanReference(dataset, params);
  EXPECT_TRUE(testing::SamePartition(degraded.labels, reference.labels));
}

TEST_F(FaultTest, DegradedRunsAreBitIdenticalAcrossThreadCounts) {
  const Dataset dataset = FaultScene();
  const DbsvecParams params = SceneParams(dataset);
  ASSERT_TRUE(registry().ArmSpec("svdd.train:error").ok());

  SetGlobalThreads(1);
  Clustering sequential;
  ASSERT_TRUE(RunDbsvec(dataset, params, &sequential).ok());

  SetGlobalThreads(8);
  Clustering parallel;
  ASSERT_TRUE(RunDbsvec(dataset, params, &parallel).ok());

  EXPECT_EQ(sequential.labels, parallel.labels);
  EXPECT_EQ(sequential.num_clusters, parallel.num_clusters);
  EXPECT_EQ(sequential.stats.num_svdd_fallbacks,
            parallel.stats.num_svdd_fallbacks);
}

// ---------------------------------------------------------------------------
// Deadlines through the long-running entry points.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RunDbsvecHonorsAnExpiredDeadline) {
  const Dataset dataset = FaultScene();
  DbsvecParams params = SceneParams(dataset);
  params.deadline = Deadline::After(-1.0);
  Clustering out;
  const Status status = RunDbsvec(dataset, params, &out);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(out.labels.empty());  // Labels cleared; no half-run output.
  EXPECT_EQ(out.num_clusters, 0);
}

TEST_F(FaultTest, RunDbsvecHonorsCancellation) {
  const Dataset dataset = FaultScene();
  DbsvecParams params = SceneParams(dataset);
  CancelFlag cancel;
  cancel.Cancel();
  params.deadline = Deadline::Cancellable(cancel);
  Clustering out;
  const Status status = RunDbsvec(dataset, params, &out);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_NE(status.message().find("cancelled"), std::string::npos);
}

TEST_F(FaultTest, CreateIndexCheckedSurfacesDeadlineAndFault) {
  const Dataset dataset = testing::RandomDataset(50, 2, 10.0, 3);
  std::unique_ptr<NeighborIndex> index;

  ASSERT_TRUE(CreateIndexChecked(IndexType::kKdTree, dataset, 1.0,
                                 Deadline(), &index)
                  .ok());
  EXPECT_NE(index, nullptr);

  EXPECT_EQ(CreateIndexChecked(IndexType::kKdTree, dataset, 1.0,
                               Deadline::After(-1.0), &index)
                .code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_EQ(index, nullptr);  // Reset on failure.

  ASSERT_TRUE(registry().ArmSpec("index.build:error").ok());
  EXPECT_EQ(CreateIndexChecked(IndexType::kKdTree, dataset, 1.0, Deadline(),
                               &index)
                .code(),
            Status::Code::kInternal);
  EXPECT_EQ(index, nullptr);
}

TEST_F(FaultTest, AssignmentHonorsDeadlines) {
  const Dataset dataset = FaultScene();
  const DbsvecParams params = SceneParams(dataset);
  Clustering out;
  DbsvecModel model;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out, &model).ok());

  // An expired build deadline fails Create and hands back no engine.
  AssignmentOptions slow_build;
  slow_build.build_deadline = Deadline::After(-1.0);
  std::unique_ptr<AssignmentEngine> engine;
  EXPECT_EQ(AssignmentEngine::Create(model, slow_build, &engine).code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_EQ(engine, nullptr);

  ASSERT_TRUE(
      AssignmentEngine::Create(model, AssignmentOptions(), &engine).ok());
  ASSERT_NE(engine, nullptr);

  std::vector<int32_t> labels;
  EXPECT_TRUE(engine->AssignBatch(dataset, &labels).ok());
  EXPECT_EQ(labels.size(), static_cast<size_t>(dataset.size()));

  EXPECT_EQ(engine->AssignBatch(dataset, &labels, Deadline::After(-1.0))
                .code(),
            Status::Code::kDeadlineExceeded);

  int32_t label = 0;
  EXPECT_EQ(engine->Assign(dataset.point(0), &label, Deadline::After(-1.0))
                .code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(engine->Assign(dataset.point(0), &label).ok());
}

// ---------------------------------------------------------------------------
// Model I/O failpoints: injected errors and payload corruption.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ModelIoFailpointsAndCorruptionDetection) {
  const Dataset dataset = FaultScene();
  const DbsvecParams params = SceneParams(dataset);
  Clustering out;
  DbsvecModel model;
  ASSERT_TRUE(RunDbsvec(dataset, params, &out, &model).ok());
  const std::string path = TempPath("fault_model.bin");

  ASSERT_TRUE(registry().ArmSpec("model.save:error:io").ok());
  EXPECT_EQ(SaveModel(model, path).code(), Status::Code::kIoError);

  registry().DisarmAll();
  ASSERT_TRUE(SaveModel(model, path).ok());

  ASSERT_TRUE(registry().ArmSpec("model.load:error:io").ok());
  DbsvecModel loaded;
  EXPECT_EQ(LoadModel(path, &loaded).code(), Status::Code::kIoError);

  registry().DisarmAll();
  ASSERT_TRUE(LoadModel(path, &loaded).ok());
  EXPECT_TRUE(loaded == model);  // Clean round trip once disarmed.

  // A payload byte flipped on the write side must fail the load-side CRC.
  ASSERT_TRUE(registry().ArmSpec("model.save:corrupt").ok());
  ASSERT_TRUE(SaveModel(model, path).ok());
  registry().DisarmAll();
  Status status = LoadModel(path, &loaded);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);

  // Same for a byte flipped on the read side of a clean file.
  ASSERT_TRUE(SaveModel(model, path).ok());
  ASSERT_TRUE(registry().ArmSpec("model.load:corrupt").ok());
  status = LoadModel(path, &loaded);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The sweep: every site, one at a time, through fit → save → load → assign.
// ---------------------------------------------------------------------------

/// One full pipeline pass. `failed_step` is empty when every step
/// succeeded, else the name of the first failing step with its Status in
/// `failure`.
struct PipelineOutcome {
  std::string failed_step;
  Status failure;
  Clustering clustering;
  std::vector<int32_t> assigned;
};

PipelineOutcome RunPipeline(const std::string& csv_path,
                            const std::string& model_path) {
  PipelineOutcome outcome;
  const auto fail = [&outcome](const std::string& step, Status status) {
    outcome.failed_step = step;
    outcome.failure = std::move(status);
  };

  Dataset data(1);
  if (Status s = ReadCsv(csv_path, false, &data, nullptr); !s.ok()) {
    fail("ingest", std::move(s));
    return outcome;
  }
  DbsvecModel model;
  if (Status s = RunDbsvec(data, SceneParams(data), &outcome.clustering,
                           &model);
      !s.ok()) {
    fail("fit", std::move(s));
    return outcome;
  }
  if (Status s = SaveModel(model, model_path); !s.ok()) {
    fail("save", std::move(s));
    return outcome;
  }
  DbsvecModel loaded;
  if (Status s = LoadModel(model_path, &loaded); !s.ok()) {
    fail("load", std::move(s));
    return outcome;
  }
  std::unique_ptr<AssignmentEngine> engine;
  if (Status s = AssignmentEngine::Create(std::move(loaded),
                                          AssignmentOptions(), &engine);
      !s.ok()) {
    fail("create", std::move(s));
    return outcome;
  }
  if (Status s = engine->AssignBatch(data, &outcome.assigned); !s.ok()) {
    fail("assign", std::move(s));
    return outcome;
  }
  return outcome;
}

TEST_F(FaultTest, ErrorSweepEverySiteFailsCleanlyOrDegrades) {
  const Dataset dataset = FaultScene();
  const std::string csv_path = TempPath("fault_sweep.csv");
  ASSERT_TRUE(WriteCsv(dataset, {}, csv_path).ok());
  const std::string model_path = TempPath("fault_sweep_model.bin");

  // Healthy baseline: the full pipeline succeeds and trains SVDD spheres.
  const PipelineOutcome healthy = RunPipeline(csv_path, model_path);
  ASSERT_EQ(healthy.failed_step, "") << healthy.failure.ToString();
  ASSERT_GT(healthy.clustering.stats.num_svdd_trainings, 0u);
  const Clustering reference =
      DbscanReference(dataset, SceneParams(dataset));

  // Sites whose injected failure must degrade (run still succeeds via
  // exact expansion), vs sites whose failure must abort a specific step.
  const std::map<std::string, std::string> expected_fail_step = {
      {"csv.read", "ingest"},        {"index.build", "fit"},
      {"model.save", "save"},        {"model.load", "load"},
      {"assign.batch", "assign"},    {"thread_pool.task", "assign"},
  };
  const std::vector<std::string> fallback_sites = {
      "kernel_cache.materialize", "smo.solve", "svdd.train"};
  // The server sites live on the HTTP serving path, which this offline
  // fit/save/load/assign pipeline never crosses; tests/server_test.cc
  // sweeps them through a live server instead. exec.shard_merge sits on
  // the sharded batch path, which the default shards=0 pipeline never
  // takes; the ShardMerge* tests below exercise it through a sharded fit.
  // svdd.budget_merge sits inside the budgeted SMO maintenance step, which
  // the default sv_budget=0 pipeline never enters; the Budget* tests in
  // tests/budget_test.cc sweep it through a budgeted fit.
  // journal.append / journal.fsync sit on the durable serving path, which
  // the offline fit+assign pipeline never takes; tests/durability_test.cc
  // sweeps them through journaled absorbs.
  // registry.create / registry.recover sit on the multi-tenant model
  // registry path; tests/registry_test.cc sweeps them through a live
  // registry server.
  const std::vector<std::string> out_of_pipeline_sites = {
      "server.accept", "server.reload", "serve.refresh", "exec.shard_merge",
      "svdd.budget_merge", "journal.append",
      "journal.fsync", "registry.create", "registry.recover"};

  for (const std::string_view site : FailpointRegistry::Sites()) {
    if (std::find(out_of_pipeline_sites.begin(), out_of_pipeline_sites.end(),
                  std::string(site)) != out_of_pipeline_sites.end()) {
      continue;
    }
    registry().DisarmAll();
    ASSERT_TRUE(registry().Arm(site, Mode::kError).ok()) << site;
    const PipelineOutcome outcome = RunPipeline(csv_path, model_path);
    EXPECT_GE(registry().HitCount(site), 1u)
        << site << " was armed but never reached";

    const auto it = expected_fail_step.find(std::string(site));
    if (it != expected_fail_step.end()) {
      EXPECT_EQ(outcome.failed_step, it->second) << site;
      EXPECT_FALSE(outcome.failure.ok()) << site;
      EXPECT_FALSE(outcome.failure.message().empty()) << site;
    } else {
      // Degradation site: the pipeline completes and the fit fell back to
      // exact expansion, reproducing the reference DBSCAN partition.
      ASSERT_NE(std::find(fallback_sites.begin(), fallback_sites.end(),
                          std::string(site)),
                fallback_sites.end())
          << "site with no sweep expectation: " << site;
      EXPECT_EQ(outcome.failed_step, "")
          << site << ": " << outcome.failure.ToString();
      EXPECT_GT(outcome.clustering.stats.num_svdd_fallbacks, 0u) << site;
      EXPECT_TRUE(testing::SamePartition(outcome.clustering.labels,
                                         reference.labels))
          << site;
    }
  }
}

// The sharded-merge site only exists on the sharded batch path, so it gets
// dedicated coverage: error mode must fail the sharded fit with a clean
// Status naming the site, and delay mode must change nothing but time.
TEST_F(FaultTest, ShardMergeErrorFailsShardedFit) {
  const Dataset dataset = FaultScene();
  DbsvecParams params = SceneParams(dataset);
  params.shards = 2;
  ASSERT_TRUE(registry().Arm("exec.shard_merge", Mode::kError).ok());
  Clustering out;
  const Status status = RunDbsvec(dataset, params, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exec.shard_merge"), std::string::npos);
  EXPECT_GE(registry().HitCount("exec.shard_merge"), 1u);
  // Interrupted fits hand back stats, never a half-expanded labelling.
  EXPECT_TRUE(out.labels.empty());
}

TEST_F(FaultTest, ShardMergeDelayOnlySlowsTheShardedFit) {
  const Dataset dataset = FaultScene();
  DbsvecParams params = SceneParams(dataset);
  params.shards = 2;
  Clustering baseline;
  ASSERT_TRUE(RunDbsvec(dataset, params, &baseline).ok());
  ASSERT_TRUE(registry().Arm("exec.shard_merge", Mode::kDelayMs, "5").ok());
  Clustering delayed;
  ASSERT_TRUE(RunDbsvec(dataset, params, &delayed).ok());
  EXPECT_GE(registry().HitCount("exec.shard_merge"), 1u);
  EXPECT_EQ(baseline.labels, delayed.labels);
  EXPECT_EQ(baseline.num_clusters, delayed.num_clusters);
}

TEST_F(FaultTest, NonconvergeSweepNeverFailsThePipeline) {
  const Dataset dataset = FaultScene();
  const std::string csv_path = TempPath("fault_sweep_nc.csv");
  ASSERT_TRUE(WriteCsv(dataset, {}, csv_path).ok());
  const std::string model_path = TempPath("fault_sweep_nc_model.bin");

  for (const std::string_view site : FailpointRegistry::Sites()) {
    registry().DisarmAll();
    ASSERT_TRUE(registry().Arm(site, Mode::kNonconverge).ok()) << site;
    const PipelineOutcome outcome = RunPipeline(csv_path, model_path);
    EXPECT_EQ(outcome.failed_step, "")
        << site << ": " << outcome.failure.ToString();
    if (site == "smo.solve" || site == "svdd.train") {
      EXPECT_GT(outcome.clustering.stats.num_nonconverged_solves, 0u)
          << site;
      EXPECT_GT(outcome.clustering.stats.num_svdd_fallbacks, 0u) << site;
    }
  }
}

// ---------------------------------------------------------------------------
// CLI surface.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CliParsesRobustnessFlags) {
  cli::CliOptions options;
  ASSERT_TRUE(cli::ParseCliOptions({"--deadline-ms=250",
                                    "--failpoints=smo.solve:nonconverge"},
                                   &options)
                  .ok());
  EXPECT_EQ(options.deadline_ms, 250);
  EXPECT_EQ(options.failpoints, "smo.solve:nonconverge");

  EXPECT_FALSE(cli::ParseCliOptions({"--deadline-ms=0"}, &options).ok());
  EXPECT_FALSE(cli::ParseCliOptions({"--deadline-ms=-5"}, &options).ok());
  EXPECT_FALSE(cli::ParseCliOptions({"--failpoints="}, &options).ok());
}

}  // namespace
}  // namespace dbsvec
