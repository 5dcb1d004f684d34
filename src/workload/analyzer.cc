#include "workload/analyzer.h"

#include <algorithm>
#include <bit>
#include <map>

#include "common/strutil.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

double WorkloadProfile::NodeBlocks(int obj) const {
  double total = 0;
  for (const auto& s : statements) {
    for (const auto& sp : s.subplans) {
      for (const auto& a : sp.accesses) {
        if (a.object_id == obj) total += s.weight * a.blocks;
      }
    }
  }
  return total;
}

Result<WorkloadProfile> AnalyzeWorkload(const Database& db, const Workload& workload,
                                        const OptimizerOptions& options) {
  DBLAYOUT_TRACE_SPAN("workload/analyze");
  WorkloadProfile profile;
  profile.num_objects = db.Objects().size();
  Optimizer optimizer(db, options);
  for (const auto& ws : workload.statements()) {
    DBLAYOUT_TRACE_SPAN("workload/plan_statement");
    auto plan = optimizer.Plan(ws.parsed);
    if (!plan.ok()) {
      return Status(plan.status().code(),
                    StrFormat("statement '%.60s...': %s", ws.sql.c_str(),
                              plan.status().message().c_str()));
    }
    StatementProfile sp;
    sp.sql = ws.sql;
    sp.weight = ws.weight;
    sp.stream = ws.stream;
    sp.plan = std::move(plan).value();
    sp.subplans = DecomposeIntoSubplans(*sp.plan);
    DBLAYOUT_OBS_COUNT("workload/statements_planned", 1);
    DBLAYOUT_OBS_COUNT("workload/subplans",
                       static_cast<int64_t>(sp.subplans.size()));
    profile.statements.push_back(std::move(sp));
  }
  return profile;
}

WorkloadProfile AnalyzeWorkloadLenient(const Database& db, const Workload& workload,
                                       std::vector<StatementAnalysisError>* errors,
                                       const OptimizerOptions& options) {
  DBLAYOUT_TRACE_SPAN("workload/analyze");
  WorkloadProfile profile;
  profile.num_objects = db.Objects().size();
  Optimizer optimizer(db, options);
  for (size_t i = 0; i < workload.statements().size(); ++i) {
    const WorkloadStatement& ws = workload.statement(i);
    DBLAYOUT_TRACE_SPAN("workload/plan_statement");
    auto plan = optimizer.Plan(ws.parsed);
    if (!plan.ok()) {
      if (errors != nullptr) {
        errors->push_back(StatementAnalysisError{i, ws.sql, plan.status()});
      }
      DBLAYOUT_OBS_COUNT("workload/statements_unplannable", 1);
      continue;
    }
    StatementProfile sp;
    sp.sql = ws.sql;
    sp.weight = ws.weight;
    sp.stream = ws.stream;
    sp.plan = std::move(plan).value();
    sp.subplans = DecomposeIntoSubplans(*sp.plan);
    DBLAYOUT_OBS_COUNT("workload/statements_planned", 1);
    DBLAYOUT_OBS_COUNT("workload/subplans",
                       static_cast<int64_t>(sp.subplans.size()));
    profile.statements.push_back(std::move(sp));
  }
  return profile;
}

std::vector<bool> ReferencedObjects(const WorkloadProfile& profile) {
  std::vector<bool> referenced(profile.num_objects, false);
  for (const auto& s : profile.statements) {
    for (const auto& sp : s.subplans) {
      for (const auto& a : sp.accesses) {
        if (a.object_id >= 0 && static_cast<size_t>(a.object_id) < referenced.size()) {
          referenced[static_cast<size_t>(a.object_id)] = true;
        }
      }
    }
  }
  return referenced;
}

WorkloadProfile MergeConcurrentStreams(const WorkloadProfile& profile) {
  WorkloadProfile out;
  out.num_objects = profile.num_objects;

  // Per stream, pipelines in execution order (bottom-up within a statement,
  // statements in workload order). Serial statements pass through.
  std::map<int, std::vector<const SubplanAccess*>> streams;
  for (const auto& s : profile.statements) {
    if (s.stream <= 0) {
      StatementProfile copy;
      copy.sql = s.sql;
      copy.weight = s.weight;
      copy.stream = s.stream;
      copy.plan = s.plan ? ClonePlan(*s.plan) : nullptr;
      copy.subplans = s.subplans;
      out.statements.push_back(std::move(copy));
      continue;
    }
    auto& queue = streams[s.stream];
    for (auto it = s.subplans.rbegin(); it != s.subplans.rend(); ++it) {
      queue.push_back(&*it);
    }
  }
  if (streams.empty()) return out;

  size_t rounds = 0;
  for (const auto& [id, queue] : streams) {
    (void)id;
    rounds = std::max(rounds, queue.size());
  }
  for (size_t r = 0; r < rounds; ++r) {
    StatementProfile merged;
    merged.sql = StrFormat("<concurrent round %zu>", r + 1);
    merged.weight = 1.0;
    SubplanAccess combined;
    for (const auto& [id, queue] : streams) {
      (void)id;
      if (r >= queue.size()) continue;
      for (const ObjectAccess& a : queue[r]->accesses) {
        combined.accesses.push_back(a);
      }
    }
    merged.subplans.push_back(std::move(combined));
    out.statements.push_back(std::move(merged));
  }
  return out;
}

int32_t AccessKeys::Shape(const SubplanAccess& subplan) {
  accesses_.clear();
  for (const ObjectAccess& a : subplan.accesses) {
    accesses_.emplace_back(a.object_id, std::bit_cast<uint64_t>(a.blocks),
                           a.is_write, a.random, a.read_modify_write);
  }
  return shape_ids_.try_emplace(accesses_, num_shapes()).first->second;
}

int32_t AccessKeys::Term(const std::vector<int32_t>& shapes) {
  return term_ids_.try_emplace(shapes, num_terms()).first->second;
}

int32_t AccessKeys::Term(const StatementProfile& statement) {
  shapes_.clear();
  for (const SubplanAccess& sp : statement.subplans) shapes_.push_back(Shape(sp));
  return Term(shapes_);
}

void ProfileFold::Add(const StatementProfile& statement, WorkloadProfile* profile) {
  if (statement.stream <= 0) {
    const size_t term = static_cast<size_t>(keys_.Term(statement));
    if (term < representative_.size()) {
      profile->statements[representative_[term]].weight += statement.weight;
      return;
    }
    representative_.push_back(profile->statements.size());
  }
  StatementProfile& copy = profile->statements.emplace_back();
  copy.sql = statement.sql;
  copy.weight = statement.weight;
  copy.stream = statement.stream;
  copy.subplans = statement.subplans;
  if (statement.stream > 0 && statement.plan) copy.plan = ClonePlan(*statement.plan);
}

WorkloadProfile CompressProfile(const WorkloadProfile& profile) {
  WorkloadProfile out;
  out.num_objects = profile.num_objects;
  ProfileFold fold;
  for (const StatementProfile& s : profile.statements) fold.Add(s, &out);
  return out;
}

ProfileAccessStats ComputeProfileStats(const WorkloadProfile& profile) {
  ProfileAccessStats stats;
  AccessKeys keys;
  for (const auto& s : profile.statements) {
    ++stats.statements;
    stats.subplans += static_cast<int64_t>(s.subplans.size());
    if (s.stream > 0) {
      // Stream-tagged statements stay individual under CompressProfile.
      ++stats.distinct_signatures;
    } else {
      keys.Term(s);
    }
  }
  stats.distinct_signatures += keys.num_terms();
  return stats;
}

WeightedGraph BuildAccessGraph(const WorkloadProfile& profile) {
  DBLAYOUT_TRACE_SPAN("workload/build_access_graph");
  WeightedGraph g(profile.num_objects);
  for (const auto& s : profile.statements) {
    for (const auto& sp : s.subplans) {
      // Node weights: blocks of each object accessed in the sub-plan.
      for (const auto& a : sp.accesses) {
        g.AddNodeWeight(static_cast<size_t>(a.object_id), s.weight * a.blocks);
      }
      // Edge weights: for each pair of distinct objects co-accessed, the sum
      // of the blocks of the two objects (Fig. 6, step 5).
      for (size_t i = 0; i < sp.accesses.size(); ++i) {
        for (size_t j = i + 1; j < sp.accesses.size(); ++j) {
          const auto& a = sp.accesses[i];
          const auto& b = sp.accesses[j];
          if (a.object_id == b.object_id) continue;
          g.AddEdgeWeight(static_cast<size_t>(a.object_id),
                          static_cast<size_t>(b.object_id),
                          s.weight * (a.blocks + b.blocks));
        }
      }
    }
  }
  return g;
}

std::string AccessGraphToString(const WeightedGraph& g, const Database& db) {
  const auto& objects = db.Objects();
  std::string out = "access graph:\n";
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    if (g.node_weight(u) <= 0 && g.Neighbors(u).empty()) continue;
    out += StrFormat("  %s (%.0f)\n", objects[u].name.c_str(), g.node_weight(u));
    // Sorted-neighbor order: this string lands in --explain output and test
    // expectations, so edge lines must not follow hash order.
    for (const auto& [v, w] : g.SortedNeighbors(u)) {
      if (u < v) {
        out += StrFormat("    -- %s : %.0f\n", objects[v].name.c_str(), w);
      }
    }
  }
  return out;
}

}  // namespace dblayout
