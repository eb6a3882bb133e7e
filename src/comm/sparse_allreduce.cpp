#include "comm/sparse_allreduce.hpp"

#include <algorithm>
#include <stdexcept>

namespace sptrsv {

namespace {

constexpr int kTagSparseReduce = 0x5A01;
constexpr int kTagSparseBcast = 0x5A02;

/// Segments shared by a pair of grids at exchange level `l`: a node at
/// depth d is replicated across 2^(levels-d) grids, so it is common to a
/// pair at distance 2^l iff d <= levels - l - 1. Returned sorted by node id
/// so both sides pack in the same order.
std::vector<const ReduceSegment*> shared_at_level(const NdTree& tree,
                                                  std::span<const ReduceSegment> segs,
                                                  int l) {
  std::vector<const ReduceSegment*> out;
  for (const auto& s : segs) {
    if (tree.node(s.node).depth <= tree.levels() - l - 1) out.push_back(&s);
  }
  std::sort(out.begin(), out.end(),
            [](const ReduceSegment* a, const ReduceSegment* b) { return a->node < b->node; });
  return out;
}

std::vector<Real> pack(const std::vector<const ReduceSegment*>& segs) {
  size_t total = 0;
  for (const auto* s : segs) total += s->values.size();
  std::vector<Real> buf;
  buf.reserve(total);
  for (const auto* s : segs) buf.insert(buf.end(), s->values.begin(), s->values.end());
  return buf;
}

/// Inverse of pack; `op(local, incoming)` combines each segment with its
/// slice of `buf` (accumulate when reducing, replace when broadcasting).
template <class Op>
void unpack(const std::vector<const ReduceSegment*>& segs, std::span<const Real> buf,
            Op op) {
  size_t off = 0;
  for (const auto* s : segs) {
    if (off + s->values.size() > buf.size()) {
      throw std::runtime_error("sparse_allreduce: mismatched buffer layout");
    }
    op(s->values, buf.subspan(off, s->values.size()));
    off += s->values.size();
  }
  if (off != buf.size()) {
    throw std::runtime_error("sparse_allreduce: trailing buffer data");
  }
}

void validate(Comm& zcomm, const NdTree& tree, std::span<const ReduceSegment> segments) {
  if (zcomm.size() != tree.num_leaves()) {
    throw std::invalid_argument("sparse_allreduce: zcomm size != number of grids");
  }
  for (const auto& s : segments) {
    const auto [lo, hi] = tree.leaf_range(s.node);
    if (zcomm.rank() < lo || zcomm.rank() >= hi) {
      throw std::invalid_argument("sparse_allreduce: segment node not an ancestor");
    }
    if (tree.node(s.node).depth >= tree.levels()) {
      throw std::invalid_argument("sparse_allreduce: leaf nodes are not replicated");
    }
  }
}

}  // namespace

void sparse_allreduce(Comm& zcomm, const NdTree& tree,
                      std::span<const ReduceSegment> segments, TimeCategory cat) {
  validate(zcomm, tree, segments);
  const int levels = tree.levels();
  const int z = zcomm.rank();

  // Metric handles are null when RunOptions::metrics is off; add() is then a
  // no-op. Counters live outside the clean ledger (docs/OBSERVABILITY.md).
  const MetricsRegistry::Counter m_rexch = zcomm.metric_counter("zreduce.exchanges");
  const MetricsRegistry::Counter m_rvals = zcomm.metric_counter("zreduce.values");
  const MetricsRegistry::Counter m_bexch = zcomm.metric_counter("zbcast.exchanges");
  const MetricsRegistry::Counter m_bvals = zcomm.metric_counter("zbcast.values");
  const auto count_values = [](const std::vector<const ReduceSegment*>& shared) {
    std::int64_t n = 0;
    for (const auto* s : shared) n += static_cast<std::int64_t>(s->values.size());
    return n;
  };

  // Buddy checkpoint of the in-flight allreduce partials, cut after every
  // exchange level: one entry per segment, in segment order (the order SDC
  // word draws index into). Partials are summed in place — that is the
  // whole point of the reduction.
  // The exchange schedule and reduction order are pinned by the virtual
  // rank inside the reduce tree, not by the physical host, so a shrunk
  // world replaying an adopted partition (RunOptions::degrade) sums the
  // same partials in the same order and stays bitwise fault-invariant.
  const CheckpointScope ckpt =
      zcomm.register_checkpoint("sparse_allreduce", StateKind::kInPlace, [&] {
        std::vector<StateEntry> entries;
        for (const auto& s : segments) entries.push_back({s.node, s.values});
        return entries;
      });

  try {
  // Reduce phase (Fig 3a): leaf-to-root; the higher grid of each pair sends
  // its partial sums to the lower one and goes inactive.
  for (int l = 0; l < levels; ++l) {
    if (z % (1 << l) != 0) break;  // went inactive at an earlier level
    const auto shared = shared_at_level(tree, segments, l);
    if (shared.empty()) continue;
    const TraceSpan level_span = zcomm.annotate("zreduce", l);
    const int partner = z ^ (1 << l);
    m_rexch.add();
    m_rvals.add(count_values(shared));
    if (z & (1 << l)) {
      zcomm.send(partner, kTagSparseReduce, pack(shared), cat);
    } else {
      const Message m = zcomm.recv(partner, kTagSparseReduce, cat);
      unpack(shared, m.data, [](std::span<Real> local, std::span<const Real> in) {
        for (size_t i = 0; i < in.size(); ++i) local[i] += in[i];
      });
    }
    zcomm.checkpoint_epoch(l);  // reduce-level boundary
  }

  // Broadcast phase (Fig 3b): root-to-leaf; lower grid sends completed sums
  // back to the higher one.
  for (int l = levels - 1; l >= 0; --l) {
    if (z % (1 << l) != 0) continue;  // participates only from its level down
    const auto shared = shared_at_level(tree, segments, l);
    if (shared.empty()) continue;
    const TraceSpan level_span = zcomm.annotate("zbcast", l);
    const int partner = z ^ (1 << l);
    m_bexch.add();
    m_bvals.add(count_values(shared));
    if (z & (1 << l)) {
      const Message m = zcomm.recv(partner, kTagSparseBcast, cat);
      unpack(shared, m.data, [](std::span<Real> local, std::span<const Real> in) {
        std::copy(in.begin(), in.end(), local.begin());
      });
    } else {
      zcomm.send(partner, kTagSparseBcast, pack(shared), cat);
    }
    zcomm.checkpoint_epoch(levels + (levels - 1 - l));  // bcast-level boundary
  }
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "sparse_allreduce");
  }
}

void dense_allreduce_per_node(Comm& zcomm, const NdTree& tree,
                              std::span<const ReduceSegment> segments, TimeCategory cat) {
  validate(zcomm, tree, segments);
  const MetricsRegistry::Counter m_rounds = zcomm.metric_counter("zreduce.dense_rounds");
  const MetricsRegistry::Counter m_rvals = zcomm.metric_counter("zreduce.values");
  try {
  // Every internal tracked node triggers one full-communicator allreduce.
  // Grids that do not share the node contribute zeros; node sizes are
  // agreed via an (uncharged) max-reduce of the local lengths.
  for (Idx id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).depth >= tree.levels()) continue;
    const ReduceSegment* mine = nullptr;
    for (const auto& s : segments) {
      if (s.node == id) mine = &s;
    }
    const double len = zcomm.allreduce_max(mine ? static_cast<double>(mine->values.size()) : 0.0);
    const auto n = static_cast<size_t>(len);
    if (n == 0) continue;
    const TraceSpan node_span = zcomm.annotate("dense_zreduce", static_cast<std::int64_t>(id));
    m_rounds.add();
    m_rvals.add(static_cast<std::int64_t>(n));
    std::vector<Real> contrib(n, 0.0);
    if (mine) std::copy(mine->values.begin(), mine->values.end(), contrib.begin());
    const std::vector<Real> sum = zcomm.allreduce_sum(contrib, cat);
    if (mine) std::copy_n(sum.begin(), mine->values.size(), mine->values.begin());
  }
  } catch (FaultError& fe) {
    rethrow_with_phase(fe, "dense_allreduce_per_node");
  }
}

}  // namespace sptrsv
