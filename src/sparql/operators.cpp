#include "sparql/operators.hpp"

#include <algorithm>
#include <cmath>

#include "sparql/filter_eval.hpp"

namespace turbo::sparql {

int CompareTerms(const rdf::Dictionary& dict, const LocalVocab* local, TermId a,
                 TermId b) {
  if (a == b) return 0;
  if (a == kInvalidId) return -1;
  if (b == kInvalidId) return 1;
  // Numeric terms form their own rank below non-numeric terms (SPARQL-style
  // type grouping). Comparing numerically only when BOTH sides are numeric
  // but lexically across the boundary would create comparison cycles
  // ("2" < "10" < "1z" < "2") — not a strict weak ordering, which
  // std::sort / push_heap require. NaN-valued literals ("NaN"^^xsd:double
  // parses to NaN) are unordered against every number, so they demote to
  // the lexical rank for the same reason.
  auto na = ResolveNumeric(dict, local, a), nb = ResolveNumeric(dict, local, b);
  if (na && std::isnan(*na)) na.reset();
  if (nb && std::isnan(*nb)) nb.reset();
  if (na.has_value() != nb.has_value()) return na ? -1 : 1;
  if (na && nb && *na != *nb) return *na < *nb ? -1 : 1;
  const rdf::Term* ta = ResolveTerm(dict, local, a);
  const rdf::Term* tb = ResolveTerm(dict, local, b);
  if (!ta || !tb) return ta ? 1 : (tb ? -1 : 0);
  int c = ta->lexical.compare(tb->lexical);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

// ---------------------------------------------------------------------------
// BgpSource
// ---------------------------------------------------------------------------

EmitResult BgpSource::DoPush(const Row& row) {
  bool downstream_stopped = false;
  util::Status st = solver_.Evaluate(
      bgp_, vars_, row, pushable_,
      [&](const Row& out) -> EmitResult {
        if (Emit(out) == EmitResult::kStop) {
          downstream_stopped = true;
          return EmitResult::kStop;
        }
        return EmitResult::kContinue;
      },
      state()->control);
  if (!st.ok()) {
    state()->Fail(std::move(st),
                  CauseOf(state()->control, StopCause::kProducerFailed));
    return EmitResult::kStop;
  }
  return downstream_stopped ? EmitResult::kStop : EmitResult::kContinue;
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

EmitResult FilterOp::DoPush(const Row& row) {
  for (const FilterExpr* e : exprs_)
    if (!eval_.Test(*e, row)) return EmitResult::kContinue;
  return Emit(row);
}

// ---------------------------------------------------------------------------
// BindOp
// ---------------------------------------------------------------------------

EmitResult BindOp::DoPush(const Row& row) {
  scratch_ = row;
  if (scratch_[target_idx_] == kInvalidId) {
    if (std::optional<rdf::Term> t = eval_.EvalTerm(*expr_, row))
      // InternVisible: a computed term that already exists in the store's
      // overlay must reuse that id so downstream joins and DISTINCT see it
      // as the same value.
      scratch_[target_idx_] = local_->InternVisible(*t);
  }
  return Emit(scratch_);
}

// ---------------------------------------------------------------------------
// GroupAggregateOp
// ---------------------------------------------------------------------------

namespace {

std::string GroupLabel(const std::vector<int>& keys, const std::vector<AggSpec>& aggs,
                       bool implicit) {
  std::string s = "GroupAggregate{";
  s += implicit ? "implicit group" : "keys=" + std::to_string(keys.size());
  for (const AggSpec& a : aggs) s += "; " + a.agg.ToString();
  s += "}";
  return s;
}

}  // namespace

GroupAggregateOp::GroupAggregateOp(std::vector<int> key_idx, std::vector<AggSpec> aggs,
                                   bool implicit_group, const rdf::Dictionary& dict,
                                   LocalVocab* local, RowOp* next, ExecState* state)
    : RowOp(GroupLabel(key_idx, aggs, implicit_group), next, state),
      key_idx_(std::move(key_idx)),
      aggs_(std::move(aggs)),
      implicit_group_(implicit_group),
      dict_(dict),
      local_(local) {}

void GroupAggregateOp::Accumulate(const AggSpec& spec, Accum* a, const Row& row) {
  using Func = Aggregate::Func;
  if (spec.agg.star) {
    // COUNT(*) — rows, not values. DISTINCT * dedupes whole rows.
    if (spec.agg.distinct) {
      if (!a->distinct_rows) a->distinct_rows = std::make_unique<std::set<Row>>();
      a->distinct_rows->insert(row);
    } else {
      ++a->count;
    }
    return;
  }
  TermId v = spec.arg_idx >= 0 ? row[spec.arg_idx] : kInvalidId;
  if (v == kInvalidId) return;  // unbound contributes nothing
  // DISTINCT dedup only where duplicates change the result — MIN/MAX are
  // idempotent, so they skip the per-group value set entirely.
  if (spec.agg.distinct && spec.agg.func != Func::kMin &&
      spec.agg.func != Func::kMax) {
    if (!a->distinct) a->distinct = std::make_unique<std::set<TermId>>();
    if (!a->distinct->insert(v).second) return;
  }
  switch (spec.agg.func) {
    case Func::kCount:
      ++a->count;
      break;
    case Func::kSum:
    case Func::kAvg: {
      if (a->num_error) return;
      auto [it, added] = num_cache_.try_emplace(v);
      if (added) {
        // Resolve through the local vocab as well: VALUES / BIND rows feed
        // aggregation with computed ids above the dictionary.
        const rdf::Term* t = ResolveTerm(dict_, local_, v);
        it->second = t ? NumericOfTerm(*t) : std::nullopt;
      }
      const std::optional<Numeric>& n = it->second;
      if (!n) {
        a->num_error = true;  // bound non-numeric: the aggregate errors
        return;
      }
      a->sum = NumericAdd(a->sum, *n);
      ++a->count;
      break;
    }
    case Func::kMin:
      if (a->best == kInvalidId || CompareTerms(dict_, local_, v, a->best) < 0)
        a->best = v;
      break;
    case Func::kMax:
      if (a->best == kInvalidId || CompareTerms(dict_, local_, v, a->best) > 0)
        a->best = v;
      break;
  }
}

TermId GroupAggregateOp::Result(const AggSpec& spec, const Accum& a) {
  using Func = Aggregate::Func;
  switch (spec.agg.func) {
    case Func::kCount: {
      uint64_t n = spec.agg.star && spec.agg.distinct
                       ? (a.distinct_rows ? a.distinct_rows->size() : 0)
                       : a.count;
      return local_->Intern(NumericToTerm(Numeric::Int(static_cast<int64_t>(n))));
    }
    case Func::kSum:
      if (a.num_error) return kInvalidId;
      return local_->Intern(NumericToTerm(a.sum));  // empty group: exact 0
    case Func::kAvg:
      if (a.num_error) return kInvalidId;
      if (a.count == 0) return local_->Intern(NumericToTerm(Numeric::Int(0)));
      return local_->Intern(NumericToTerm(NumericMean(a.sum, a.count)));
    case Func::kMin:
    case Func::kMax:
      return a.best;  // kInvalidId (unbound) when no value was seen
  }
  return kInvalidId;
}

EmitResult GroupAggregateOp::DoPush(const Row& row) {
  key_scratch_.resize(key_idx_.size());
  for (size_t i = 0; i < key_idx_.size(); ++i) key_scratch_[i] = row[key_idx_[i]];
  // The group table is working state like DistinctOp's memo, not a
  // delivery-ordering buffer: it stays out of peak_buffered_rows().
  auto [it, added] = index_.try_emplace(key_scratch_, groups_.size());
  if (added) groups_.push_back({key_scratch_, std::vector<Accum>(aggs_.size())});
  Group& g = groups_[it->second];
  for (size_t i = 0; i < aggs_.size(); ++i) Accumulate(aggs_[i], &g.accums[i], row);
  return EmitResult::kContinue;  // grouping absorbs demand: no pushdown past here
}

util::Status GroupAggregateOp::DoFinish() {
  if (groups_.empty() && implicit_group_) {
    // Aggregates without GROUP BY always produce one group, even over an
    // empty input (COUNT(*) = 0); an explicit GROUP BY over nothing
    // produces nothing.
    groups_.push_back({{}, std::vector<Accum>(aggs_.size())});
  }
  FlushBuffered(groups_, [this](const Group& g) -> const Row& {
    out_scratch_.assign(key_idx_.size() + aggs_.size(), kInvalidId);
    for (size_t i = 0; i < g.key.size(); ++i) out_scratch_[i] = g.key[i];
    for (size_t i = 0; i < aggs_.size(); ++i)
      out_scratch_[key_idx_.size() + i] = Result(aggs_[i], g.accums[i]);
    return out_scratch_;
  });
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// OrderByOp / TopKOp
// ---------------------------------------------------------------------------

util::Status OrderByOp::DoFinish() {
  std::sort(rows_.begin(), rows_.end(), [this](const Keyed& a, const Keyed& b) {
    return keys_.Less(a.row, a.seq, b.row, b.seq);  // seq tiebreak => stable
  });
  FlushBuffered(rows_, [](const Keyed& k) -> const Row& { return k.row; });
  return util::Status::Ok();
}

EmitResult TopKOp::DoPush(const Row& row) {
  ++seq_;
  if (cap_ == 0) return EmitResult::kContinue;
  auto less = [this](const Keyed& a, const Keyed& b) { return KeyedLess(a, b); };
  if (heap_.size() < cap_) {
    heap_.push_back({row, seq_});
    std::push_heap(heap_.begin(), heap_.end(), less);
    state()->NoteBuffered(heap_.size());
    return EmitResult::kContinue;
  }
  // Compare before copying: at steady state most rows lose to the heap
  // maximum, and rejecting them must not cost a Row allocation.
  const Keyed& worst = heap_.front();
  if (keys_.Less(row, seq_, worst.row, worst.seq)) {
    std::pop_heap(heap_.begin(), heap_.end(), less);
    heap_.back() = Keyed{row, seq_};
    std::push_heap(heap_.begin(), heap_.end(), less);
  }
  return EmitResult::kContinue;
}

util::Status TopKOp::DoFinish() {
  std::sort_heap(heap_.begin(), heap_.end(),
                 [this](const Keyed& a, const Keyed& b) { return KeyedLess(a, b); });
  FlushBuffered(heap_, [](const Keyed& k) -> const Row& { return k.row; });
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

namespace {

void AppendChain(const RowOp* op, int depth, std::string* out) {
  for (; op; op = op->next()) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    *out += op->label();
    *out += "  in=" + std::to_string(op->rows_in()) +
            " out=" + std::to_string(op->rows_out()) + "\n";
    for (const RowOp* child : op->children()) AppendChain(child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainChain(const RowOp* head) {
  std::string out;
  AppendChain(head, 0, &out);
  return out;
}

}  // namespace turbo::sparql
