#include "plan/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace dace::plan {

namespace {
constexpr const char* kOperatorNames[kNumOperatorTypes] = {
    "Seq Scan",        "Index Scan",     "Index Only Scan", "Bitmap Index Scan",
    "Bitmap Heap Scan", "Nested Loop",   "Hash Join",       "Merge Join",
    "Hash",            "Sort",           "Materialize",     "Aggregate",
    "HashAggregate",   "GroupAggregate", "Limit",           "Gather",
};

constexpr const char* kCompareOpNames[] = {"=", "<", ">", "<=", ">=", "!="};
}  // namespace

const char* OperatorTypeName(OperatorType type) {
  const int idx = static_cast<int>(type);
  DACE_CHECK(idx >= 0 && idx < kNumOperatorTypes);
  return kOperatorNames[idx];
}

StatusOr<OperatorType> OperatorTypeFromName(std::string_view name) {
  for (int i = 0; i < kNumOperatorTypes; ++i) {
    if (name == kOperatorNames[i]) return static_cast<OperatorType>(i);
  }
  return Status::InvalidArgument("unknown operator type: " + std::string(name));
}

bool IsScan(OperatorType type) {
  switch (type) {
    case OperatorType::kSeqScan:
    case OperatorType::kIndexScan:
    case OperatorType::kIndexOnlyScan:
    case OperatorType::kBitmapIndexScan:
    case OperatorType::kBitmapHeapScan:
      return true;
    default:
      return false;
  }
}

bool IsJoin(OperatorType type) {
  switch (type) {
    case OperatorType::kNestedLoop:
    case OperatorType::kHashJoin:
    case OperatorType::kMergeJoin:
      return true;
    default:
      return false;
  }
}

const char* CompareOpName(CompareOp op) {
  const int idx = static_cast<int>(op);
  DACE_CHECK(idx >= 0 && idx < 6);
  return kCompareOpNames[idx];
}

namespace {
StatusOr<CompareOp> CompareOpFromName(std::string_view name) {
  for (int i = 0; i < 6; ++i) {
    if (name == kCompareOpNames[i]) return static_cast<CompareOp>(i);
  }
  return Status::InvalidArgument("unknown compare op: " + std::string(name));
}
}  // namespace

int32_t QueryPlan::AddNode(PlanNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size() - 1);
}

std::vector<int32_t> QueryPlan::DfsOrder() const {
  std::vector<int32_t> order;
  std::vector<int32_t> stack;
  DfsOrderInto(&order, &stack);
  return order;
}

void QueryPlan::DfsOrderInto(std::vector<int32_t>* order,
                             std::vector<int32_t>* stack) const {
  order->clear();
  order->reserve(nodes_.size());
  if (root_ < 0) return;
  stack->clear();
  stack->push_back(root_);
  while (!stack->empty()) {
    const int32_t id = stack->back();
    stack->pop_back();
    order->push_back(id);
    const auto& children = nodes_[static_cast<size_t>(id)].children;
    // Push in reverse so the leftmost child is visited first.
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack->push_back(*it);
    }
  }
}

std::vector<int32_t> QueryPlan::Heights() const {
  std::vector<int32_t> heights;
  std::vector<int32_t> stack;
  HeightsInto(&heights, &stack);
  return heights;
}

void QueryPlan::HeightsInto(std::vector<int32_t>* heights,
                            std::vector<int32_t>* stack) const {
  heights->assign(nodes_.size(), -1);
  if (root_ < 0) return;
  stack->clear();
  stack->push_back(root_);
  (*heights)[static_cast<size_t>(root_)] = 0;
  while (!stack->empty()) {
    const int32_t id = stack->back();
    stack->pop_back();
    for (int32_t child : nodes_[static_cast<size_t>(id)].children) {
      (*heights)[static_cast<size_t>(child)] =
          (*heights)[static_cast<size_t>(id)] + 1;
      stack->push_back(child);
    }
  }
}

std::vector<uint8_t> QueryPlan::AncestorClosure() const {
  std::vector<uint8_t> closure;
  std::vector<size_t> subtree;
  AncestorClosureInto(DfsOrder(), &closure, &subtree);
  return closure;
}

void QueryPlan::AncestorClosureInto(const std::vector<int32_t>& dfs,
                                    std::vector<uint8_t>* closure,
                                    std::vector<size_t>* subtree_scratch) const {
  const size_t n = dfs.size();
  closure->assign(n * n, 0);
  // Preorder property: the subtree of dfs[i] occupies a contiguous range
  // [i, i + subtree_size(i)). Compute subtree sizes with one reverse pass.
  subtree_scratch->assign(nodes_.size(), 1);
  std::vector<size_t>& subtree_size = *subtree_scratch;
  for (size_t pos = n; pos-- > 0;) {
    const int32_t id = dfs[pos];
    for (int32_t child : nodes_[static_cast<size_t>(id)].children) {
      subtree_size[static_cast<size_t>(id)] +=
          subtree_size[static_cast<size_t>(child)];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t extent = subtree_size[static_cast<size_t>(dfs[i])];
    for (size_t j = i; j < i + extent; ++j) (*closure)[i * n + j] = 1;
  }
}

Status QueryPlan::Validate() const {
  if (nodes_.empty()) return Status::FailedPrecondition("empty plan");
  if (root_ < 0 || static_cast<size_t>(root_) >= nodes_.size()) {
    return Status::FailedPrecondition("invalid root index");
  }
  std::vector<int> in_degree(nodes_.size(), 0);
  for (const PlanNode& node : nodes_) {
    if (node.children.size() > 2) {
      return Status::FailedPrecondition("node with more than two children");
    }
    for (int32_t child : node.children) {
      if (child < 0 || static_cast<size_t>(child) >= nodes_.size()) {
        return Status::FailedPrecondition("child index out of range");
      }
      ++in_degree[static_cast<size_t>(child)];
    }
  }
  if (in_degree[static_cast<size_t>(root_)] != 0) {
    return Status::FailedPrecondition("root has a parent");
  }
  size_t root_count = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree[i] == 0) ++root_count;
    if (in_degree[i] > 1) {
      return Status::FailedPrecondition("node with multiple parents");
    }
  }
  if (root_count != 1) {
    return Status::FailedPrecondition("plan is a forest, not a tree");
  }
  // Reachability doubles as the cycle check: a tree with the invariants
  // above reaches every node from the root.
  if (DfsOrder().size() != nodes_.size()) {
    return Status::FailedPrecondition("unreachable nodes in plan");
  }
  return Status::OK();
}

namespace {

void AppendNodeText(const QueryPlan& plan, int32_t id, int depth,
                    std::string* out) {
  const PlanNode& node = plan.node(id);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(OperatorTypeName(node.type));
  out->append(StrFormat(" (rows=%.17g cost=%.17g arows=%.17g ams=%.17g)",
                        node.est_cardinality, node.est_cost,
                        node.actual_cardinality, node.actual_time_ms));
  const NodeAnnotation& a = node.annotation;
  if (a.table_id >= 0) {
    out->append(StrFormat(" table=%d trows=%.17g", a.table_id, a.table_rows));
  }
  if (a.left_table >= 0) {
    out->append(StrFormat(" join=%d.%d=%d.%d", a.left_table, a.left_column,
                          a.right_table, a.right_column));
  }
  for (const FilterPredicate& f : a.filters) {
    out->append(StrFormat(" filter=%d,%s,%.17g,%.17g", f.column_id,
                          CompareOpName(f.op), f.literal, f.est_selectivity));
  }
  out->push_back('\n');
  for (int32_t child : node.children) {
    AppendNodeText(plan, child, depth + 1, out);
  }
}

}  // namespace

std::string QueryPlan::ToText() const {
  std::string out;
  if (root_ >= 0) AppendNodeText(*this, root_, 0, &out);
  return out;
}

namespace {

// StructuralHash and SameSubtree read the fields AppendNodeText prints, in
// its order; a field added to the text form must be added to both.
void HashNode(const QueryPlan& plan, int32_t id, uint64_t depth, Hash64* h) {
  const PlanNode& node = plan.node(id);
  h->AddU64(depth);
  h->AddU64(node.children.size());
  h->AddU64(static_cast<uint64_t>(node.type));
  h->AddDouble(node.est_cardinality);
  h->AddDouble(node.est_cost);
  h->AddDouble(node.actual_cardinality);
  h->AddDouble(node.actual_time_ms);
  const NodeAnnotation& a = node.annotation;
  if (a.table_id >= 0) {
    h->AddU64(static_cast<uint64_t>(a.table_id));
    h->AddDouble(a.table_rows);
  }
  if (a.left_table >= 0) {
    h->AddU64(static_cast<uint64_t>(a.left_table));
    h->AddU64(static_cast<uint32_t>(a.left_column));
    h->AddU64(static_cast<uint32_t>(a.right_table));
    h->AddU64(static_cast<uint32_t>(a.right_column));
  }
  h->AddU64(a.filters.size());
  for (const FilterPredicate& f : a.filters) {
    h->AddU64(static_cast<uint32_t>(f.column_id));
    h->AddU64(static_cast<uint64_t>(f.op));
    h->AddDouble(f.literal);
    h->AddDouble(f.est_selectivity);
  }
  for (int32_t child : node.children) HashNode(plan, child, depth + 1, h);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameSubtree(const QueryPlan& x, int32_t xi, const QueryPlan& y,
                 int32_t yi) {
  const PlanNode& m = x.node(xi);
  const PlanNode& n = y.node(yi);
  if (m.type != n.type || m.children.size() != n.children.size() ||
      !SameBits(m.est_cardinality, n.est_cardinality) ||
      !SameBits(m.est_cost, n.est_cost) ||
      !SameBits(m.actual_cardinality, n.actual_cardinality) ||
      !SameBits(m.actual_time_ms, n.actual_time_ms)) {
    return false;
  }
  const NodeAnnotation& a = m.annotation;
  const NodeAnnotation& b = n.annotation;
  if ((a.table_id >= 0) != (b.table_id >= 0)) return false;
  if (a.table_id >= 0 &&
      (a.table_id != b.table_id || !SameBits(a.table_rows, b.table_rows))) {
    return false;
  }
  if ((a.left_table >= 0) != (b.left_table >= 0)) return false;
  if (a.left_table >= 0 &&
      (a.left_table != b.left_table || a.left_column != b.left_column ||
       a.right_table != b.right_table || a.right_column != b.right_column)) {
    return false;
  }
  if (a.filters.size() != b.filters.size()) return false;
  for (size_t i = 0; i < a.filters.size(); ++i) {
    const FilterPredicate& f = a.filters[i];
    const FilterPredicate& g = b.filters[i];
    if (f.column_id != g.column_id || f.op != g.op ||
        !SameBits(f.literal, g.literal) ||
        !SameBits(f.est_selectivity, g.est_selectivity)) {
      return false;
    }
  }
  for (size_t i = 0; i < m.children.size(); ++i) {
    if (!SameSubtree(x, m.children[i], y, n.children[i])) return false;
  }
  return true;
}

}  // namespace

uint64_t QueryPlan::StructuralHash() const {
  Hash64 h;
  if (root_ >= 0) HashNode(*this, root_, 0, &h);
  return h.digest();
}

bool QueryPlan::operator==(const QueryPlan& other) const {
  if (root_ < 0 || other.root_ < 0) return root_ < 0 && other.root_ < 0;
  return SameSubtree(*this, root_, other, other.root_);
}

StatusOr<QueryPlan> ParsePlanText(std::string_view text) {
  QueryPlan plan;
  // Stack of (depth, node index) for attaching children.
  std::vector<std::pair<int, int32_t>> stack;
  for (std::string_view raw_line : StrSplit(text, '\n')) {
    if (StripWhitespace(raw_line).empty()) continue;
    // Depth = leading spaces / 2.
    size_t indent = 0;
    while (indent < raw_line.size() && raw_line[indent] == ' ') ++indent;
    if (indent % 2 != 0) return Status::InvalidArgument("odd indentation");
    const int depth = static_cast<int>(indent / 2);
    std::string_view line = raw_line.substr(indent);

    const size_t paren = line.find(" (");
    if (paren == std::string_view::npos) {
      return Status::InvalidArgument("missing metrics: " + std::string(line));
    }
    PlanNode node;
    DACE_ASSIGN_OR_RETURN(node.type,
                          OperatorTypeFromName(line.substr(0, paren)));
    const size_t close = line.find(')', paren);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated metrics");
    }
    // Metrics: rows=.. cost=.. arows=.. ams=..  Every value must be finite
    // (NaN/Inf would silently poison the featurizer's log-space scalers) and
    // every key may appear at most once — a duplicate means the producer is
    // confused or the bytes were corrupted, so the plan is rejected rather
    // than letting the later value win.
    uint32_t seen_metrics = 0;
    for (std::string_view tok :
         StrSplit(line.substr(paren + 2, close - paren - 2), ' ')) {
      const size_t eq = tok.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string_view key = tok.substr(0, eq);
      DACE_ASSIGN_OR_RETURN(const double value, ParseDouble(tok.substr(eq + 1)));
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("non-finite metric: " + std::string(tok));
      }
      uint32_t bit = 0;
      if (key == "rows") {
        bit = 1u << 0;
        node.est_cardinality = value;
      } else if (key == "cost") {
        bit = 1u << 1;
        node.est_cost = value;
      } else if (key == "arows") {
        bit = 1u << 2;
        node.actual_cardinality = value;
      } else if (key == "ams") {
        bit = 1u << 3;
        node.actual_time_ms = value;
      } else {
        return Status::InvalidArgument("unknown metric: " + std::string(key));
      }
      if ((seen_metrics & bit) != 0) {
        return Status::InvalidArgument("duplicate metric: " + std::string(key));
      }
      seen_metrics |= bit;
    }
    // Annotations after the metrics. The single-valued ones (table, trows,
    // join) may appear at most once; only filter= legitimately repeats.
    uint32_t seen_annotations = 0;
    const auto claim_annotation = [&](uint32_t bit) -> bool {
      if ((seen_annotations & bit) != 0) return false;
      seen_annotations |= bit;
      return true;
    };
    for (std::string_view tok : StrSplit(line.substr(close + 1), ' ')) {
      if (tok.empty()) continue;
      const size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument("bad annotation: " + std::string(tok));
      }
      const std::string_view key = tok.substr(0, eq);
      const std::string_view value = tok.substr(eq + 1);
      if (key == "table") {
        if (!claim_annotation(1u << 0)) {
          return Status::InvalidArgument("duplicate annotation: table");
        }
        DACE_ASSIGN_OR_RETURN(const int64_t id, ParseInt64(value));
        node.annotation.table_id = static_cast<int32_t>(id);
      } else if (key == "trows") {
        if (!claim_annotation(1u << 1)) {
          return Status::InvalidArgument("duplicate annotation: trows");
        }
        DACE_ASSIGN_OR_RETURN(node.annotation.table_rows, ParseDouble(value));
        if (!std::isfinite(node.annotation.table_rows)) {
          return Status::InvalidArgument("non-finite annotation: " +
                                         std::string(tok));
        }
      } else if (key == "join") {
        if (!claim_annotation(1u << 2)) {
          return Status::InvalidArgument("duplicate annotation: join");
        }
        // l.lc=r.rc
        const auto sides = StrSplit(value, '=');
        if (sides.size() != 2) return Status::InvalidArgument("bad join");
        const auto left = StrSplit(sides[0], '.');
        const auto right = StrSplit(sides[1], '.');
        if (left.size() != 2 || right.size() != 2) {
          return Status::InvalidArgument("bad join sides");
        }
        DACE_ASSIGN_OR_RETURN(const int64_t lt, ParseInt64(left[0]));
        DACE_ASSIGN_OR_RETURN(const int64_t lc, ParseInt64(left[1]));
        DACE_ASSIGN_OR_RETURN(const int64_t rt, ParseInt64(right[0]));
        DACE_ASSIGN_OR_RETURN(const int64_t rc, ParseInt64(right[1]));
        node.annotation.left_table = static_cast<int32_t>(lt);
        node.annotation.left_column = static_cast<int32_t>(lc);
        node.annotation.right_table = static_cast<int32_t>(rt);
        node.annotation.right_column = static_cast<int32_t>(rc);
      } else if (key == "filter") {
        const auto parts = StrSplit(value, ',');
        if (parts.size() != 4) return Status::InvalidArgument("bad filter");
        FilterPredicate f;
        DACE_ASSIGN_OR_RETURN(const int64_t col, ParseInt64(parts[0]));
        f.column_id = static_cast<int32_t>(col);
        DACE_ASSIGN_OR_RETURN(f.op, CompareOpFromName(parts[1]));
        DACE_ASSIGN_OR_RETURN(f.literal, ParseDouble(parts[2]));
        DACE_ASSIGN_OR_RETURN(f.est_selectivity, ParseDouble(parts[3]));
        if (!std::isfinite(f.literal) || !std::isfinite(f.est_selectivity)) {
          return Status::InvalidArgument("non-finite filter: " +
                                         std::string(tok));
        }
        node.annotation.filters.push_back(f);
      } else {
        return Status::InvalidArgument("unknown annotation: " +
                                       std::string(key));
      }
    }

    const int32_t id = plan.AddNode(std::move(node));
    while (!stack.empty() && stack.back().first >= depth) stack.pop_back();
    if (stack.empty()) {
      if (depth != 0 || plan.root() >= 0) {
        return Status::InvalidArgument("multiple roots or bad indentation");
      }
      plan.SetRoot(id);
    } else {
      if (stack.back().first != depth - 1) {
        return Status::InvalidArgument("indentation jump");
      }
      plan.mutable_node(stack.back().second).children.push_back(id);
    }
    stack.emplace_back(depth, id);
  }
  if (plan.root() < 0) return Status::InvalidArgument("empty plan text");
  DACE_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

}  // namespace dace::plan
