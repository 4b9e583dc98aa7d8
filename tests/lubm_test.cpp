// LUBM workload integration tests: generator determinism and structure, and
// cross-engine agreement on all 14 benchmark queries (TurboHOM++ type-aware,
// TurboHOM direct, SortMerge, IndexJoin must return identical counts).
#include <gtest/gtest.h>

#include "baseline/solvers.hpp"
#include "graph/data_graph.hpp"
#include "sparql/executor.hpp"
#include "sparql/turbo_solver.hpp"
#include "workload/lubm.hpp"

namespace turbo::workload {
namespace {

class LubmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmConfig cfg;
    cfg.seed = 7;
    cfg.num_universities = 1;
    ds_ = new rdf::Dataset(GenerateLubmClosed(cfg));
    g_aware_ = new graph::DataGraph(
        graph::DataGraph::Build(*ds_, graph::TransformMode::kTypeAware));
    g_direct_ = new graph::DataGraph(
        graph::DataGraph::Build(*ds_, graph::TransformMode::kDirect));
    index_ = new baseline::TripleIndex(*ds_);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete g_direct_;
    delete g_aware_;
    delete ds_;
    index_ = nullptr;
    g_direct_ = nullptr;
    g_aware_ = nullptr;
    ds_ = nullptr;
  }

  static size_t Run(const sparql::BgpSolver& solver, const std::string& text) {
    sparql::Executor ex(&solver);
    auto r = ex.Execute(text);
    EXPECT_TRUE(r.ok()) << r.message();
    return r.ok() ? r.value().rows.size() : 0;
  }

  static rdf::Dataset* ds_;
  static graph::DataGraph* g_aware_;
  static graph::DataGraph* g_direct_;
  static baseline::TripleIndex* index_;
};

rdf::Dataset* LubmTest::ds_ = nullptr;
graph::DataGraph* LubmTest::g_aware_ = nullptr;
graph::DataGraph* LubmTest::g_direct_ = nullptr;
baseline::TripleIndex* LubmTest::index_ = nullptr;

TEST_F(LubmTest, GeneratorIsDeterministic) {
  LubmConfig cfg;
  cfg.seed = 7;
  cfg.num_universities = 1;
  rdf::Dataset a = GenerateLubm(cfg);
  rdf::Dataset b = GenerateLubm(cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.triples()[100].s, b.triples()[100].s);
  EXPECT_EQ(a.triples()[a.size() - 1].o, b.triples()[b.size() - 1].o);
}

TEST_F(LubmTest, DifferentSeedsDiffer) {
  LubmConfig a7{7, 1}, a8{8, 1};
  EXPECT_NE(GenerateLubm(a7).size(), GenerateLubm(a8).size());
}

TEST_F(LubmTest, QueryEntitiesExist) {
  const rdf::Dictionary& d = ds_->dict();
  EXPECT_TRUE(d.FindIri("http://www.University0.edu").has_value());
  EXPECT_TRUE(d.FindIri("http://www.Department0.University0.edu").has_value());
  EXPECT_TRUE(
      d.FindIri("http://www.Department0.University0.edu/AssistantProfessor0").has_value());
  EXPECT_TRUE(
      d.FindIri("http://www.Department0.University0.edu/AssociateProfessor0").has_value());
  EXPECT_TRUE(
      d.FindIri("http://www.Department0.University0.edu/GraduateCourse0").has_value());
}

TEST_F(LubmTest, InferenceAddsTriples) {
  EXPECT_GT(ds_->size(), ds_->num_original());
  // Chair materialized by the headOf rule.
  auto chair = ds_->dict().FindIri(std::string(kUbPrefix) + "Chair");
  ASSERT_TRUE(chair.has_value());
  auto type_p = ds_->dict().FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  size_t chairs = 0;
  for (const auto& t : ds_->triples())
    if (t.p == *type_p && t.o == *chair) ++chairs;
  EXPECT_GE(chairs, 15u);  // one per department
}

TEST_F(LubmTest, TypeAwareGraphIsSmaller) {
  EXPECT_LT(g_aware_->num_edges(), g_direct_->num_edges());
  EXPECT_LT(g_aware_->num_vertices(), g_direct_->num_vertices());
  EXPECT_GT(g_aware_->num_vertex_labels(), 10u);
  EXPECT_EQ(g_direct_->num_vertex_labels(), 0u);
}

TEST_F(LubmTest, AllEnginesAgreeOnAllQueries) {
  sparql::TurboBgpSolver aware(*g_aware_, ds_->dict());
  sparql::TurboBgpSolver direct(*g_direct_, ds_->dict());
  baseline::SortMergeBgpSolver sm(*index_, ds_->dict());
  baseline::IndexJoinBgpSolver ij(*index_, ds_->dict());
  auto queries = LubmQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t a = Run(aware, queries[i]);
    EXPECT_EQ(a, Run(direct, queries[i])) << "Q" << i + 1 << " direct";
    EXPECT_EQ(a, Run(sm, queries[i])) << "Q" << i + 1 << " sortmerge";
    EXPECT_EQ(a, Run(ij, queries[i])) << "Q" << i + 1 << " indexjoin";
  }
}

TEST_F(LubmTest, QueryCountsHaveExpectedStructure) {
  sparql::TurboBgpSolver solver(*g_aware_, ds_->dict());
  auto q = LubmQueries();
  size_t q1 = Run(solver, q[0]);
  size_t q4 = Run(solver, q[3]);
  size_t q5 = Run(solver, q[4]);
  size_t q6 = Run(solver, q[5]);
  size_t q7 = Run(solver, q[6]);
  size_t q11 = Run(solver, q[10]);
  size_t q12 = Run(solver, q[11]);
  size_t q14 = Run(solver, q[13]);
  EXPECT_GT(q1, 0u);            // someone takes GraduateCourse0
  EXPECT_GE(q4, 25u);           // professors in Department0 (>= 7+10+8)
  EXPECT_LE(q4, 40u);
  EXPECT_GT(q5, q4);            // members include students
  EXPECT_GT(q6, q14);           // students include graduates
  EXPECT_GT(q7, 0u);
  EXPECT_GE(q11, 10u * 15u);    // research groups of University0 (transitive)
  EXPECT_GE(q12, 15u);          // one chair per department
  EXPECT_LE(q12, 25u);
}

TEST_F(LubmTest, OptimizationsDoNotChangeAnswers) {
  auto queries = LubmQueries();
  engine::MatchOptions base;
  std::vector<engine::MatchOptions> variants;
  for (int mask = 0; mask < 16; ++mask) {
    engine::MatchOptions o;
    o.use_intersection = mask & 1;
    o.use_nlf = mask & 2;
    o.use_degree_filter = mask & 4;
    o.reuse_matching_order = mask & 8;
    variants.push_back(o);
  }
  // Spot-check the two most demanding queries (Q2, Q9) plus Q12.
  for (size_t qi : {1u, 8u, 11u}) {
    sparql::TurboBgpSolver ref(*g_aware_, ds_->dict(), base);
    size_t expected = Run(ref, queries[qi]);
    for (const auto& o : variants) {
      sparql::TurboBgpSolver s(*g_aware_, ds_->dict(), o);
      EXPECT_EQ(Run(s, queries[qi]), expected) << "Q" << qi + 1;
    }
  }
}

TEST_F(LubmTest, ParallelAgreesWithSequential) {
  auto queries = LubmQueries();
  for (size_t qi : {1u, 5u, 8u}) {  // Q2, Q6, Q9
    sparql::TurboBgpSolver seq(*g_aware_, ds_->dict());
    size_t expected = Run(seq, queries[qi]);
    engine::MatchOptions opt;
    opt.num_threads = 8;
    opt.chunk_size = 4;
    sparql::TurboBgpSolver par(*g_aware_, ds_->dict(), opt);
    EXPECT_EQ(Run(par, queries[qi]), expected) << "Q" << qi + 1;
    // One Match call: more than one arena means the workers fanned out. Q2
    // starts from the one university (one worker is all it can use), and Q6
    // has one query vertex, answered from the label list by no worker.
    if (qi == 8) {
      EXPECT_GT(par.last_stats().arena_workers, 1u) << "Q" << qi + 1;
    }
  }
}

}  // namespace
}  // namespace turbo::workload
