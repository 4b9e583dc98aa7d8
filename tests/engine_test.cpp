// Core engine tests: the paper's Figure 1 (isomorphism vs e-graph
// homomorphism), Figure 2 (matching order), candidate regions, filters,
// optimizations, parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/engine.hpp"
#include "engine/query_tree.hpp"
#include "rdf/reasoner.hpp"
#include "test_util.hpp"

namespace turbo::engine {
namespace {

using graph::Direction;
using graph::QueryGraph;
using graph::TransformMode;
using testing::AddQE;
using testing::AddQV;
using testing::TestGraph;

std::set<std::vector<VertexId>> AsSet(const std::vector<Solution>& sols) {
  return {sols.begin(), sols.end()};
}

// ---------------------------------------------------------------------------
// Figure 1: the data graph g1 / query q1 example. One subgraph isomorphism,
// three e-graph homomorphisms.
// ---------------------------------------------------------------------------

class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test()
      : t_({
            {"v0", "type", "A"},
            {"v1", "type", "B"},
            {"v2", "type", "A"},
            {"v2", "type", "D"},
            {"v3", "type", "B"},
            {"v4", "type", "C"},
            {"v5", "type", "C"},
            {"v5", "type", "E"},
            {"v0", "a", "v1"},
            {"v0", "b", "v4"},
            {"v2", "a", "v1"},
            {"v2", "a", "v3"},
            {"v2", "b", "v5"},
            {"v3", "c", "v4"},
            {"v3", "c", "v5"},
        }) {}

  /// q1: u0{A} -a-> u1{B}; u0 -_-> u4{C}; u2(blank) -a-> u1; u2 -a-> u3{B};
  /// u3 -c-> u4. (u2's label set and edge (u0,u4)'s label are blank, matching
  /// the figure's "_" annotations.)
  QueryGraph MakeQ1() {
    QueryGraph q;
    uint32_t u0 = AddQV(&q, {t_.label("A")});
    uint32_t u1 = AddQV(&q, {t_.label("B")});
    uint32_t u2 = AddQV(&q, {});
    uint32_t u3 = AddQV(&q, {t_.label("B")});
    uint32_t u4 = AddQV(&q, {t_.label("C")});
    AddQE(&q, u0, u1, t_.el("a"));
    AddQE(&q, u0, u4, kInvalidId);  // blank edge label
    AddQE(&q, u2, u1, t_.el("a"));
    AddQE(&q, u2, u3, t_.el("a"));
    AddQE(&q, u3, u4, t_.el("c"));
    return q;
  }

  std::vector<VertexId> Map(std::initializer_list<const char*> names) {
    std::vector<VertexId> v;
    for (const char* n : names) v.push_back(t_.vertex(n));
    return v;
  }

  TestGraph t_;
};

TEST_F(Figure1Test, HomomorphismFindsThreeSolutions) {
  Matcher m(t_.g());
  auto sols = m.FindAll(MakeQ1());
  EXPECT_EQ(AsSet(sols), (std::set<std::vector<VertexId>>{
                             Map({"v0", "v1", "v2", "v3", "v4"}),  // M1
                             Map({"v2", "v3", "v2", "v3", "v5"}),  // M2
                             Map({"v2", "v1", "v2", "v3", "v5"}),  // M3
                         }));
}

TEST_F(Figure1Test, IsomorphismFindsOneSolution) {
  MatchOptions opt;
  opt.semantics = MatchSemantics::kIsomorphism;
  Matcher m(t_.g(), opt);
  auto sols = m.FindAll(MakeQ1());
  EXPECT_EQ(AsSet(sols), (std::set<std::vector<VertexId>>{
                             Map({"v0", "v1", "v2", "v3", "v4"}),
                         }));
}

TEST_F(Figure1Test, EdgeLabelMappingIsRecoverable) {
  // Definition 2's Me: for the blank query edge (u0, u4), the matched edge
  // label must be recoverable from the vertex mapping.
  Matcher m(t_.g());
  auto sols = m.FindAll(MakeQ1());
  std::vector<EdgeLabelId> els;
  for (const Solution& s : sols) {
    t_.g().EdgeLabelsBetween(s[0], s[4], &els);
    ASSERT_EQ(els.size(), 1u);
    EXPECT_EQ(els[0], t_.el("b"));  // Me(u0, u4) = b in all three solutions
  }
}

TEST_F(Figure1Test, CountMatchesFindAll) {
  Matcher m(t_.g());
  EXPECT_EQ(m.Count(MakeQ1()), 3u);
}

TEST_F(Figure1Test, AllOptimizationCombosAgree) {
  QueryGraph q = MakeQ1();
  for (int mask = 0; mask < 16; ++mask) {
    MatchOptions opt;
    opt.use_intersection = mask & 1;
    opt.use_nlf = mask & 2;
    opt.use_degree_filter = mask & 4;
    opt.reuse_matching_order = mask & 8;
    Matcher m(t_.g(), opt);
    EXPECT_EQ(m.Count(q), 3u) << "mask=" << mask;
  }
}

// ---------------------------------------------------------------------------
// Figure 2: the matching-order problem. Star query A -> {X, Y, Z} with very
// different branch cardinalities; the candidate-region estimate must order
// the Z path before X before Y.
// ---------------------------------------------------------------------------

class Figure2Test : public ::testing::Test {
 protected:
  static rdf::Dataset MakeData(bool with_z_children) {
    rdf::Dataset ds;
    auto add = [&](const std::string& s, const std::string& p, const std::string& o) {
      ds.AddIri(testing::TestIri(s),
                p == "type" ? std::string(rdf::vocab::kRdfType) : testing::TestIri(p),
                testing::TestIri(o));
    };
    add("v0", "type", "A");
    for (int i = 0; i < 10; ++i) {
      add("x" + std::to_string(i), "type", "X");
      add("v0", "e", "x" + std::to_string(i));
    }
    for (int i = 0; i < 1000; ++i) {
      add("y" + std::to_string(i), "type", "Y");
      add("v0", "e", "y" + std::to_string(i));
    }
    for (int i = 0; i < 5; ++i) {
      add("z" + std::to_string(i), "type", "Z");
      // In the "no answer" variant, Zs hang off x0 instead of v0.
      add(with_z_children ? "v0" : "x0", "e", "z" + std::to_string(i));
    }
    return ds;
  }

  static QueryGraph MakeQ2(const TestGraph& t) {
    QueryGraph q;
    uint32_t u0 = AddQV(&q, {t.label("A")});
    uint32_t u1 = AddQV(&q, {t.label("X")});
    uint32_t u2 = AddQV(&q, {t.label("Y")});
    uint32_t u3 = AddQV(&q, {t.label("Z")});
    AddQE(&q, u0, u1, t.el("e"));
    AddQE(&q, u0, u2, t.el("e"));
    AddQE(&q, u0, u3, t.el("e"));
    return q;
  }
};

TEST_F(Figure2Test, MatchingOrderFollowsCandidateCounts) {
  TestGraph t(MakeData(true));
  Matcher m(t.g());
  MatchStats stats;
  uint64_t count = m.Count(MakeQ2(t), &stats);
  EXPECT_EQ(count, 10u * 1000u * 5u);
  // Best order from the candidate region: u0, u3 (5 Zs), u1 (10 Xs),
  // u2 (1000 Ys) — the paper's <u0, u3, u1, u2>.
  EXPECT_EQ(stats.matching_order, (std::vector<uint32_t>{0, 3, 1, 2}));
}

TEST_F(Figure2Test, EmptyRegionGivesNoAnswers) {
  TestGraph t(MakeData(false));
  Matcher m(t.g());
  MatchStats stats;
  EXPECT_EQ(m.Count(MakeQ2(t), &stats), 0u);
  EXPECT_EQ(stats.num_regions, 0u);  // region exploration fails at the Z child
}

TEST_F(Figure2Test, StartVertexIsTheRareLabel) {
  TestGraph t(MakeData(true));
  Matcher m(t.g());
  MatchStats stats;
  m.Count(MakeQ2(t), &stats);
  EXPECT_EQ(stats.start_query_vertex, 0u);  // freq(A)=1, lowest rank
}

// ---------------------------------------------------------------------------
// Fixed-ID attribute, single-vertex queries, blank vertices.
// ---------------------------------------------------------------------------

class SmallWorldTest : public ::testing::Test {
 protected:
  SmallWorldTest()
      : t_({
            {"alice", "type", "Person"},
            {"bob", "type", "Person"},
            {"carol", "type", "Person"},
            {"acme", "type", "Company"},
            {"alice", "knows", "bob"},
            {"bob", "knows", "carol"},
            {"carol", "knows", "alice"},
            {"alice", "worksFor", "acme"},
            {"bob", "worksFor", "acme"},
        }) {}
  TestGraph t_;
};

TEST_F(SmallWorldTest, FixedIdPinsTheMatch) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {}, t_.vertex("alice"));
  uint32_t u1 = AddQV(&q, {t_.label("Person")});
  AddQE(&q, u0, u1, t_.el("knows"));
  Matcher m(t_.g());
  MatchStats stats;
  auto sols = m.FindAll(q, &stats);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0][0], t_.vertex("alice"));
  EXPECT_EQ(sols[0][1], t_.vertex("bob"));
  EXPECT_EQ(stats.start_query_vertex, u0);  // ID vertices give 1 region
  EXPECT_EQ(stats.num_start_candidates, 1u);
}

TEST_F(SmallWorldTest, SingleVertexQueryIteratesInverseLabelList) {
  QueryGraph q;
  AddQV(&q, {t_.label("Person")});
  Matcher m(t_.g());
  EXPECT_EQ(m.Count(q), 3u);
}

TEST_F(SmallWorldTest, SingleVertexWithFixedId) {
  QueryGraph q;
  AddQV(&q, {t_.label("Person")}, t_.vertex("bob"));
  Matcher m(t_.g());
  EXPECT_EQ(m.Count(q), 1u);
}

TEST_F(SmallWorldTest, SingleVertexFixedIdWrongLabel) {
  QueryGraph q;
  AddQV(&q, {t_.label("Company")}, t_.vertex("bob"));
  Matcher m(t_.g());
  EXPECT_EQ(m.Count(q), 0u);
}

TEST_F(SmallWorldTest, TriangleHomomorphism) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {t_.label("Person")});
  uint32_t u1 = AddQV(&q, {t_.label("Person")});
  uint32_t u2 = AddQV(&q, {t_.label("Person")});
  AddQE(&q, u0, u1, t_.el("knows"));
  AddQE(&q, u1, u2, t_.el("knows"));
  AddQE(&q, u2, u0, t_.el("knows"));
  Matcher m(t_.g());
  // knows-cycle alice->bob->carol->alice: 3 rotations.
  EXPECT_EQ(m.Count(q), 3u);
}

TEST_F(SmallWorldTest, BlankVertexAndBlankEdge) {
  // (?x ?p acme): who has any edge to acme?
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {});
  uint32_t u1 = AddQV(&q, {}, t_.vertex("acme"));
  AddQE(&q, u0, u1, kInvalidId);
  Matcher m(t_.g());
  EXPECT_EQ(m.Count(q), 2u);  // alice, bob
}

TEST_F(SmallWorldTest, VertexConstraintFiltersCandidates) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {t_.label("Person")});
  uint32_t u1 = AddQV(&q, {t_.label("Person")});
  AddQE(&q, u0, u1, t_.el("knows"));
  VertexId bob = t_.vertex("bob");
  q.mutable_vertex(u1).constraint = [bob](const graph::DataGraph&, VertexId v) {
    return v == bob;
  };
  Matcher m(t_.g());
  auto sols = m.FindAll(q);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0][1], bob);
}

TEST_F(SmallWorldTest, LimitStopsEarly) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {t_.label("Person")});
  uint32_t u1 = AddQV(&q, {t_.label("Person")});
  AddQE(&q, u0, u1, t_.el("knows"));
  MatchOptions opt;
  opt.limit = 2;
  Matcher m(t_.g(), opt);
  EXPECT_EQ(m.FindAll(q).size(), 2u);
}

TEST_F(SmallWorldTest, UnknownFixedIdYieldsEmpty) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {}, kInvalidId - 1);  // out-of-range vertex id
  uint32_t u1 = AddQV(&q, {});
  AddQE(&q, u0, u1, t_.el("knows"));
  Matcher m(t_.g());
  EXPECT_EQ(m.Count(q), 0u);
}

// ---------------------------------------------------------------------------
// Self loops, parallel query edges, multi-label query vertices.
// ---------------------------------------------------------------------------

TEST(EngineEdgeCases, SelfLoop) {
  TestGraph t({{"n", "type", "T"}, {"n", "p", "n"}, {"m", "type", "T"}});
  QueryGraph q;
  uint32_t u = AddQV(&q, {t.label("T")});
  AddQE(&q, u, u, t.el("p"));
  Matcher m(t.g());
  auto sols = m.FindAll(q);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0][0], t.vertex("n"));
}

TEST(EngineEdgeCases, SelfLoopBlankLabel) {
  TestGraph t({{"n", "type", "T"}, {"n", "p", "n"}, {"m", "type", "T"}});
  QueryGraph q;
  uint32_t u = AddQV(&q, {t.label("T")});
  AddQE(&q, u, u, kInvalidId);
  Matcher m(t.g());
  EXPECT_EQ(m.Count(q), 1u);
}

TEST(EngineEdgeCases, ParallelQueryEdgesRequireBothPredicates) {
  TestGraph t({{"a", "p", "b"},
               {"a", "q", "b"},
               {"c", "p", "d"},
               {"a", "type", "T"},
               {"c", "type", "T"}});
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {t.label("T")});
  uint32_t u1 = AddQV(&q, {});
  AddQE(&q, u0, u1, t.el("p"));
  AddQE(&q, u0, u1, t.el("q"));
  Matcher m(t.g());
  auto sols = m.FindAll(q);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0][0], t.vertex("a"));
}

TEST(EngineEdgeCases, MultiLabelQueryVertex) {
  TestGraph t({{"x", "type", "A"},
               {"x", "type", "B"},
               {"y", "type", "A"},
               {"r", "e", "x"},
               {"r", "e", "y"},
               {"r", "type", "R"}});
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {t.label("R")});
  uint32_t u1 = AddQV(&q, {t.label("A"), t.label("B")});
  AddQE(&q, u0, u1, t.el("e"));
  Matcher m(t.g());
  auto sols = m.FindAll(q);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0][1], t.vertex("x"));
}

TEST(EngineEdgeCases, SimpleEntailmentUsesAssertedTypesOnly) {
  rdf::Dataset ds = testing::MakeDataset({{"GradStudent", "subclass", "Student"},
                                          {"g1", "type", "GradStudent"},
                                          {"s1", "type", "Student"},
                                          {"g1", "at", "uni"},
                                          {"s1", "at", "uni"},
                                          {"uni", "type", "Uni"}});
  rdf::MaterializeInference(&ds);
  TestGraph t(std::move(ds));
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {t.label("Student")});
  uint32_t u1 = AddQV(&q, {t.label("Uni")});
  AddQE(&q, u0, u1, t.el("at"));

  Matcher full(t.g());
  EXPECT_EQ(full.Count(q), 2u);  // g1 (inferred Student) + s1

  MatchOptions opt;
  opt.simple_entailment = true;
  Matcher simple(t.g(), opt);
  EXPECT_EQ(simple.Count(q), 1u);  // only the asserted Student
}

// ---------------------------------------------------------------------------
// Parallel execution: results must match sequential.
// ---------------------------------------------------------------------------

TEST(EngineParallel, ParallelMatchesSequential) {
  // A two-level tree: 40 universities, each with departments and students.
  rdf::Dataset ds;
  auto add = [&](const std::string& s, const std::string& p, const std::string& o) {
    ds.AddIri(testing::TestIri(s),
              p == "type" ? std::string(rdf::vocab::kRdfType) : testing::TestIri(p),
              testing::TestIri(o));
  };
  for (int u = 0; u < 40; ++u) {
    std::string uni = "uni" + std::to_string(u);
    add(uni, "type", "University");
    for (int d = 0; d < 1 + u % 4; ++d) {
      std::string dept = uni + "_d" + std::to_string(d);
      add(dept, "type", "Department");
      add(dept, "subOrgOf", uni);
      for (int s = 0; s < 1 + (u + d) % 5; ++s) {
        std::string st = dept + "_s" + std::to_string(s);
        add(st, "type", "Student");
        add(st, "memberOf", dept);
        add(st, "degreeFrom", uni);
      }
    }
  }
  TestGraph t(std::move(ds));
  QueryGraph q;
  uint32_t x = AddQV(&q, {t.label("Student")});
  uint32_t y = AddQV(&q, {t.label("University")});
  uint32_t z = AddQV(&q, {t.label("Department")});
  AddQE(&q, x, y, t.el("degreeFrom"));
  AddQE(&q, x, z, t.el("memberOf"));
  AddQE(&q, z, y, t.el("subOrgOf"));

  Matcher seq(t.g());
  auto expected = AsSet(seq.FindAll(q));
  EXPECT_FALSE(expected.empty());

  for (uint32_t threads : {2u, 4u, 8u}) {
    MatchOptions opt;
    opt.num_threads = threads;
    opt.chunk_size = 3;
    Matcher par(t.g(), opt);
    MatchStats st;
    EXPECT_EQ(AsSet(par.FindAll(q, &st)), expected) << threads << " threads";
    EXPECT_EQ(st.arena_workers, threads) << threads << " threads";
  }

  // Static pre-partitioning (the §5.2 ablation path) must agree too.
  MatchOptions stat;
  stat.num_threads = 4;
  stat.dynamic_chunking = false;
  Matcher par_static(t.g(), stat);
  MatchStats static_stats;
  EXPECT_EQ(AsSet(par_static.FindAll(q, &static_stats)), expected);
  EXPECT_EQ(static_stats.arena_workers, 4u);
}

// ---------------------------------------------------------------------------
// QueryTree structure.
// ---------------------------------------------------------------------------

TEST(QueryTreeTest, BfsTreeAndNonTreeEdges) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {});
  uint32_t u1 = AddQV(&q, {});
  uint32_t u2 = AddQV(&q, {});
  AddQE(&q, u0, u1, 0);
  AddQE(&q, u1, u2, 1);
  AddQE(&q, u2, u0, 2);  // triangle: one non-tree edge
  QueryTree t = QueryTree::Build(q, u0);
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.non_tree_edges().size(), 1u);
  EXPECT_EQ(t.node(0).qv, u0);
  EXPECT_EQ(t.node(t.node_of(u1)).parent, 0u);
}

TEST(QueryTreeTest, DirectionFromParent) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {});
  uint32_t u1 = AddQV(&q, {});
  uint32_t u2 = AddQV(&q, {});
  AddQE(&q, u0, u1, 0);  // out edge from root
  AddQE(&q, u2, u0, 1);  // in edge at root
  QueryTree t = QueryTree::Build(q, u0);
  EXPECT_EQ(t.node(t.node_of(u1)).dir_from_parent, Direction::kOut);
  EXPECT_EQ(t.node(t.node_of(u2)).dir_from_parent, Direction::kIn);
}

TEST(QueryTreeTest, PathsCoverAllLeaves) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {});
  uint32_t u1 = AddQV(&q, {});
  uint32_t u2 = AddQV(&q, {});
  uint32_t u3 = AddQV(&q, {});
  AddQE(&q, u0, u1, 0);
  AddQE(&q, u0, u2, 0);
  AddQE(&q, u1, u3, 0);
  QueryTree t = QueryTree::Build(q, u0);
  EXPECT_EQ(t.paths().size(), 2u);  // u0->u1->u3 and u0->u2
}

TEST(QueryTreeTest, SelfLoopIsNonTree) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {});
  uint32_t u1 = AddQV(&q, {});
  AddQE(&q, u0, u0, 0);
  AddQE(&q, u0, u1, 1);
  QueryTree t = QueryTree::Build(q, u0);
  EXPECT_EQ(t.num_nodes(), 2u);
  ASSERT_EQ(t.non_tree_edges().size(), 1u);
  EXPECT_EQ(t.non_tree_edges()[0], 0u);
}

}  // namespace
}  // namespace turbo::engine
