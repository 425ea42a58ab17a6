#include "net/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>

#include "common/check.hpp"

namespace dynsub::net {

void Metrics::record_round(Round round, std::uint64_t changes_this_round,
                           std::uint64_t inconsistent_nodes,
                           std::uint64_t messages_this_round,
                           std::uint64_t bits_this_round) {
  (void)round;
  ++rounds_;
  changes_ += changes_this_round;
  messages_ += messages_this_round;
  payload_bits_ += bits_this_round;

  sum_inconsistent_nodes_ += inconsistent_nodes;
  if (inconsistent_nodes > 0) ++inconsistent_rounds_;
  if (changes_ > 0) {
    amortized_sup_ = std::max(
        amortized_sup_, static_cast<double>(inconsistent_rounds_) /
                            static_cast<double>(changes_));
  }
}

double Metrics::amortized() const {
  if (changes_ == 0) return 0.0;
  return static_cast<double>(inconsistent_rounds_) /
         static_cast<double>(changes_);
}

double Metrics::per_node_amortized_sup() const {
  double worst = 0.0;
  for (std::size_t v = 0; v < node_inconsistent_.size(); ++v) {
    const double denom =
        static_cast<double>(std::max<std::uint64_t>(1, node_changes_[v]));
    worst = std::max(worst,
                     static_cast<double>(node_inconsistent_[v]) / denom);
  }
  return worst;
}

void write_shard_jsonl(std::ostream& out,
                       std::span<const ShardStats> per_shard) {
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const ShardStats& st = per_shard[s];
    const std::uint64_t values[] = {s, st.frames, st.wire_bytes, st.faults,
                                    st.lost_batches};
    static_assert(std::size(values) == kShardRecordKeys.size());
    for (std::size_t k = 0; k < kShardRecordKeys.size(); ++k) {
      out << (k == 0 ? "{\"" : ",\"") << kShardRecordKeys[k] << "\":"
          << values[k];
    }
    out << "}\n";
  }
}

}  // namespace dynsub::net
