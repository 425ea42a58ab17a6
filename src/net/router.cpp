#include "net/router.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "net/message.hpp"
#include "oracle/timestamped_graph.hpp"

namespace dynsub::net {

namespace {

// --- little-endian wire primitives (v1 lane-batch format) ------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Bounds-checked little-endian reader over the batch bytes.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool read_u8(std::uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool read_u16(std::uint16_t* v) {
    if (pos_ + 2 > bytes_.size()) return false;
    *v = static_cast<std::uint16_t>(bytes_[pos_] |
                                    (std::uint16_t{bytes_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool read_u32(std::uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= std::uint32_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 4;
    *v = r;
    return true;
  }
  [[nodiscard]] bool read_u64(std::uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 8;
    *v = r;
    return true;
  }
  [[nodiscard]] bool read_bytes(std::uint8_t* dst, std::size_t count) {
    if (pos_ + count > bytes_.size()) return false;
    std::memcpy(dst, bytes_.data() + pos_, count);
    pos_ += count;
    return true;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void encode_message(std::vector<std::uint8_t>& out, const WireMessage& m) {
  out.push_back(static_cast<std::uint8_t>(m.kind));
  out.push_back(m.path_len);
  out.push_back(m.ttl);
  for (NodeId id : m.nodes) put_u32(out, id);
  put_u32(out, m.aux);
  put_u32(out, m.aux2);
  put_u32(out, static_cast<std::uint32_t>(m.blob.size()));
  const auto bytes = m.blob.bytes();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

bool decode_message(Reader& r, WireMessage* m) {
  std::uint8_t kind = 0;
  if (!r.read_u8(&kind) || !r.read_u8(&m->path_len) || !r.read_u8(&m->ttl)) {
    return false;
  }
  if (kind > static_cast<std::uint8_t>(WireMessage::Kind::kNotice)) {
    return false;
  }
  m->kind = static_cast<WireMessage::Kind>(kind);
  for (NodeId& id : m->nodes) {
    if (!r.read_u32(&id)) return false;
  }
  std::uint32_t blob_len = 0;
  if (!r.read_u32(&m->aux) || !r.read_u32(&m->aux2) || !r.read_u32(&blob_len)) {
    return false;
  }
  m->blob.resize(blob_len);
  return r.read_bytes(m->blob.data(), blob_len);
}

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

// CRC32C (Castagnoli, reflected polynomial 0x82f63b78) lookup table,
// computed once at first use.  Software table-driven: no SSE4.2 / zlib
// dependency, identical output on every platform.
const std::uint32_t* crc32c_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  const std::uint32_t* table = crc32c_table();
  crc = ~crc;
  for (const std::uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

namespace {

/// CRC32C of an encoded batch with the header's crc field treated as zero
/// -- the quantity both encode_lane (stamp) and decode_lane (verify)
/// compute.  Streamed in three slices, so neither side copies the buffer.
std::uint32_t batch_crc(std::span<const std::uint8_t> bytes) {
  DYNSUB_DCHECK(bytes.size() >= LaneBatchHeader::kWireBytes);
  static constexpr std::uint8_t kZeros[4] = {0, 0, 0, 0};
  std::uint32_t c = crc32c(bytes.first(LaneBatchHeader::kCrcOffset));
  c = crc32c(std::span<const std::uint8_t>(kZeros, 4), c);
  c = crc32c(bytes.subspan(LaneBatchHeader::kCrcOffset + 4), c);
  return c;
}

}  // namespace

Router::Router(std::size_t n, std::size_t lanes, RouterConfig config)
    : Router(n, lanes, config, 0, n) {}

Router::Router(std::size_t n, std::size_t lanes, RouterConfig config,
               NodeId base, std::size_t count)
    : config_(config),
      n_(n),
      budget_bits_(bandwidth_bits(n)),
      payloads_(base, count, lanes),
      busy_(base, count, lanes),
      two_hop_(base, count, lanes),
      lane_traffic_(lanes),
      lane_epoch_(lanes, 1),
      lane_dst_scratch_(lanes) {
  DYNSUB_CHECK(lanes >= 1);
  DYNSUB_CHECK(base + count <= n);
}

void Router::begin_round(Round round) {
  round_ = round;
  ++seq_;  // one wire sequence number per round; resends reuse it
  payloads_.begin_round();
  busy_.begin_round();
  two_hop_.begin_round();
  for (auto& t : lane_traffic_) t = LaneTraffic{};
}

void Router::validate_outbox(NodeId sender, const Outbox& out,
                             const oracle::TimestampedGraph& graph,
                             std::vector<NodeId>& dst_scratch) const {
  // A link of G_i is an entry of the sender's sorted adjacency: a search
  // over its degree, not over the global edge map.
  const std::span<const NodeId> neighbors = graph.neighbors(sender);
  for (const auto& dm : out.directed()) {
    DYNSUB_CHECK_MSG(dm.dst < n_, "node " << sender << " sent to bad id");
    DYNSUB_CHECK_MSG(std::binary_search(neighbors.begin(), neighbors.end(),
                                        dm.dst),
                     "round " << round_ << ": node " << sender
                              << " sent over absent link to " << dm.dst);
    if (config_.enforce_bandwidth) {
      const std::size_t sz = dm.msg.payload_bits(n_);
      DYNSUB_CHECK_MSG(sz <= budget_bits_,
                       "round " << round_ << ": node " << sender
                                << " payload of " << sz
                                << " bits exceeds budget " << budget_bits_);
    }
  }
  // Duplicate-destination rule (at most one payload per directed link per
  // round): a sender's whole outbox passes through this one call, so a
  // sort over its destinations is a complete check even though no
  // cross-caller state is shared.
  if (config_.enforce_bandwidth && out.directed().size() > 1) {
    auto& dsts = dst_scratch;
    dsts.clear();
    for (const auto& dm : out.directed()) dsts.push_back(dm.dst);
    std::sort(dsts.begin(), dsts.end());
    const auto dup = std::adjacent_find(dsts.begin(), dsts.end());
    DYNSUB_CHECK_MSG(dup == dsts.end(), "round " << round_ << ": node "
                                                 << sender
                                                 << " sent two payloads to "
                                                 << *dup);
  }
}

void Router::stage_payload(std::size_t lane, NodeId dst, Inbox::Item item,
                           std::uint64_t bits) {
  DYNSUB_DCHECK(lane < lane_traffic_.size());
  payloads_.stage(lane, dst, std::move(item));
  LaneTraffic& traffic = lane_traffic_[lane];
  ++traffic.messages;
  traffic.payload_bits += bits;
}

void Router::stage_busy(std::size_t lane, NodeId dst, NodeId sender) {
  busy_.stage(lane, dst, sender);
}

void Router::stage_two_hop(std::size_t lane, NodeId dst, NodeId sender) {
  two_hop_.stage(lane, dst, sender);
}

void Router::stage_outbox(std::size_t lane, NodeId sender, Outbox& out,
                          const oracle::TimestampedGraph& graph) {
  DYNSUB_DCHECK(lane < lane_traffic_.size());
  validate_outbox(sender, out, graph, lane_dst_scratch_[lane]);
  LaneTraffic& traffic = lane_traffic_[lane];
  for (auto& dm : out.directed_mut()) {
    if (config_.enforce_bandwidth) {
      traffic.payload_bits += dm.msg.payload_bits(n_);
    }
    payloads_.stage(lane, dm.dst, Inbox::Item{sender, std::move(dm.msg)});
    ++traffic.messages;
  }
  // Control bits are broadcast to all current neighbors.
  if (!out.is_empty_flag() || !out.are_neighbors_empty_flag()) {
    for (NodeId u : graph.neighbors(sender)) {
      if (!out.is_empty_flag()) busy_.stage(lane, u, sender);
      if (!out.are_neighbors_empty_flag()) two_hop_.stage(lane, u, sender);
    }
  }
}

LaneTraffic Router::merge() {
  payloads_.merge();
  busy_.merge();
  two_hop_.merge();
  LaneTraffic total;
  for (const auto& t : lane_traffic_) total += t;
  return total;
}

LaneBatchHeader make_lane_header(std::uint16_t lane, Round round,
                                 std::uint64_t seq, std::uint32_t epoch,
                                 LaneTraffic traffic,
                                 const LaneBatchView& view) {
  LaneBatchHeader h;
  h.lane = lane;
  h.round = round;
  h.payload_count = view.payloads.size();
  h.busy_count = view.busy.size();
  h.two_hop_count = view.two_hop.size();
  h.messages = traffic.messages;
  h.payload_bits = traffic.payload_bits;
  h.seq = seq;
  h.epoch = epoch;
  std::uint64_t bytes = 0;
  for (const auto& [dst, item] : view.payloads) {
    (void)dst;
    // dst + from + kind/path_len/ttl + 4 node ids + aux + aux2 + blob len.
    bytes += 4 + 4 + 3 + 16 + 4 + 4 + 4 + item.msg.blob.size();
  }
  h.payload_bytes = bytes;
  return h;
}

void encode_lane_batch(std::uint16_t lane, Round round, std::uint64_t seq,
                       std::uint32_t epoch, LaneTraffic traffic,
                       const LaneBatchView& view,
                       std::vector<std::uint8_t>& out) {
  const LaneBatchHeader h =
      make_lane_header(lane, round, seq, epoch, traffic, view);
  const std::size_t start = out.size();
  out.reserve(start + h.wire_size());
  put_u32(out, h.magic);
  put_u16(out, h.version);
  put_u16(out, h.lane);
  put_u64(out, static_cast<std::uint64_t>(h.round));
  put_u64(out, h.payload_count);
  put_u64(out, h.busy_count);
  put_u64(out, h.two_hop_count);
  put_u64(out, h.payload_bytes);
  put_u64(out, h.messages);
  put_u64(out, h.payload_bits);
  put_u64(out, h.seq);
  put_u32(out, h.epoch);
  put_u32(out, 0);  // crc placeholder, patched below
  for (const auto& [dst, item] : view.payloads) {
    put_u32(out, dst);
    put_u32(out, item.from);
    encode_message(out, item.msg);
  }
  for (const auto& [dst, sender] : view.busy) {
    put_u32(out, dst);
    put_u32(out, sender);
  }
  for (const auto& [dst, sender] : view.two_hop) {
    put_u32(out, dst);
    put_u32(out, sender);
  }
  // Stamp the CRC over everything just written (crc field still zero).
  const std::uint32_t crc = batch_crc(
      std::span<const std::uint8_t>(out.data() + start, out.size() - start));
  for (int i = 0; i < 4; ++i) {
    out[start + LaneBatchHeader::kCrcOffset + i] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

std::uint64_t peek_frame_size(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  std::uint32_t magic = 0;
  std::uint16_t version = 0, lane = 0;
  std::uint64_t round = 0, payload_count = 0, busy_count = 0, two_hop_count = 0,
                payload_bytes = 0;
  if (!r.read_u32(&magic) || !r.read_u16(&version) || !r.read_u16(&lane) ||
      !r.read_u64(&round) || !r.read_u64(&payload_count) ||
      !r.read_u64(&busy_count) || !r.read_u64(&two_hop_count) ||
      !r.read_u64(&payload_bytes)) {
    return 0;
  }
  if (magic != LaneBatchHeader::kMagic ||
      version != LaneBatchHeader::kVersion) {
    return 0;
  }
  // Same overflow guards as decode_lane: a corrupt size field must not
  // wrap wire_size() back into plausible range.
  constexpr std::uint64_t kSizeCap = std::uint64_t{1} << 62;
  if (payload_bytes >= kSizeCap || busy_count >= kSizeCap / 16 ||
      two_hop_count >= kSizeCap / 16) {
    return 0;
  }
  return LaneBatchHeader::kWireBytes + payload_bytes +
         8 * (busy_count + two_hop_count);
}

LaneBatchHeader Router::lane_header(std::size_t lane) const {
  DYNSUB_DCHECK(lane < lane_traffic_.size());
  return make_lane_header(
      static_cast<std::uint16_t>(lane), round_, seq_, lane_epoch_[lane],
      lane_traffic_[lane],
      LaneBatchView{payloads_.lane_staged(lane), busy_.lane_staged(lane),
                    two_hop_.lane_staged(lane)});
}

void Router::encode_lane(std::size_t lane,
                         std::vector<std::uint8_t>& out) const {
  DYNSUB_DCHECK(lane < lane_traffic_.size());
  encode_lane_batch(
      static_cast<std::uint16_t>(lane), round_, seq_, lane_epoch_[lane],
      lane_traffic_[lane],
      LaneBatchView{payloads_.lane_staged(lane), busy_.lane_staged(lane),
                    two_hop_.lane_staged(lane)},
      out);
}

bool Router::decode_lane(std::span<const std::uint8_t> bytes,
                         LaneBatch* batch, std::string* error) {
  Reader r(bytes);
  LaneBatchHeader& h = batch->header;
  std::uint64_t round = 0;
  if (!r.read_u32(&h.magic) || !r.read_u16(&h.version) ||
      !r.read_u16(&h.lane) || !r.read_u64(&round) ||
      !r.read_u64(&h.payload_count) || !r.read_u64(&h.busy_count) ||
      !r.read_u64(&h.two_hop_count) || !r.read_u64(&h.payload_bytes) ||
      !r.read_u64(&h.messages) || !r.read_u64(&h.payload_bits) ||
      !r.read_u64(&h.seq) || !r.read_u32(&h.epoch) || !r.read_u32(&h.crc)) {
    return fail(error, "lane batch: truncated header");
  }
  h.round = static_cast<Round>(round);
  if (h.magic != LaneBatchHeader::kMagic) {
    return fail(error, "lane batch: bad magic");
  }
  if (h.version != LaneBatchHeader::kVersion) {
    return fail(error, "lane batch: unsupported version");
  }
  // Size the frame from the header with overflow-safe arithmetic: a
  // corrupt count must not wrap the expected size back into range.
  constexpr std::uint64_t kSizeCap = std::uint64_t{1} << 62;
  if (h.payload_bytes >= kSizeCap || h.busy_count >= kSizeCap / 16 ||
      h.two_hop_count >= kSizeCap / 16) {
    return fail(error, "lane batch: header sizes out of range");
  }
  if (bytes.size() != h.wire_size()) {
    return fail(error, h.wire_size() > bytes.size()
                           ? "lane batch: truncated batch"
                           : "lane batch: trailing bytes after batch");
  }
  // Verify the checksum before trusting any section count: every byte of
  // a corrupted frame is rejected here, never half-parsed into a batch.
  const std::uint32_t want_crc = batch_crc(bytes);
  if (h.crc != want_crc) {
    return fail(error, "lane batch: checksum mismatch");
  }
  // The wire CRC is transit armor, not batch state: zero it so a decoded
  // batch compares equal to the header the staging side reported.
  h.crc = 0;
  // Each payload entry is at least 39 bytes (ids + fixed message fields +
  // blob length); a count that could not fit in payload_bytes is corrupt,
  // and rejecting it here also bounds the reserve below.
  if (h.payload_count > h.payload_bytes / 39) {
    return fail(error, "lane batch: payload count exceeds section size");
  }
  const std::size_t payload_start = r.pos();
  batch->payloads.clear();
  batch->payloads.reserve(h.payload_count);
  for (std::uint64_t i = 0; i < h.payload_count; ++i) {
    NodeId dst = 0;
    Inbox::Item item{};
    if (!r.read_u32(&dst) || !r.read_u32(&item.from) ||
        !decode_message(r, &item.msg)) {
      return fail(error, "lane batch: truncated payload section");
    }
    batch->payloads.emplace_back(dst, std::move(item));
  }
  if (r.pos() - payload_start != h.payload_bytes) {
    return fail(error, "lane batch: payload section size mismatch");
  }
  auto read_flags = [&](std::uint64_t count,
                        std::vector<std::pair<NodeId, NodeId>>& flags) {
    flags.clear();
    flags.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      NodeId dst = 0, sender = 0;
      if (!r.read_u32(&dst) || !r.read_u32(&sender)) return false;
      flags.emplace_back(dst, sender);
    }
    return true;
  };
  if (!read_flags(h.busy_count, batch->busy) ||
      !read_flags(h.two_hop_count, batch->two_hop)) {
    return fail(error, "lane batch: truncated control-bit section");
  }
  return true;
}

void Router::replace_lane(std::size_t lane, LaneBatch&& batch) {
  DYNSUB_DCHECK(lane < lane_traffic_.size());
  DYNSUB_CHECK_MSG(batch.header.lane == lane,
                   "replace_lane: batch for lane "
                       << batch.header.lane << " delivered into lane "
                       << lane);
  auto& payloads = payloads_.lane_mut(lane);
  payloads.clear();
  for (auto& [dst, item] : batch.payloads) {
    payloads.emplace_back(dst, std::move(item));
  }
  busy_.lane_mut(lane).assign(batch.busy.begin(), batch.busy.end());
  two_hop_.lane_mut(lane).assign(batch.two_hop.begin(), batch.two_hop.end());
  lane_traffic_[lane] =
      LaneTraffic{batch.header.messages, batch.header.payload_bits};
}

void Router::clear_lane(std::size_t lane) {
  DYNSUB_DCHECK(lane < lane_traffic_.size());
  payloads_.lane_mut(lane).clear();
  busy_.lane_mut(lane).clear();
  two_hop_.lane_mut(lane).clear();
  lane_traffic_[lane] = LaneTraffic{};
}

void Router::collect_lane_destinations(std::size_t lane,
                                       std::vector<NodeId>* out) const {
  for (const auto& [dst, item] : payloads_.lane_staged(lane)) {
    (void)item;
    out->push_back(dst);
  }
  for (const auto& [dst, sender] : busy_.lane_staged(lane)) {
    (void)sender;
    out->push_back(dst);
  }
  for (const auto& [dst, sender] : two_hop_.lane_staged(lane)) {
    (void)sender;
    out->push_back(dst);
  }
}

}  // namespace dynsub::net
