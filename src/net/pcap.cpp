#include "net/pcap.hpp"

#include "util/bytes.hpp"

namespace spire::net {

NetworkLabels& NetworkLabels::instance() {
  static NetworkLabels labels;
  return labels;
}

FrameSummary FrameSummary::summarize(sim::Time now,
                                     const EthernetFrame& frame) {
  FrameSummary s;
  s.time = now;
  s.wire_size = static_cast<std::uint32_t>(frame.wire_size());
  s.src_mac = mac_key(frame.src);
  s.dst_mac = mac_key(frame.dst);
  if (frame.dst.is_broadcast()) s.flags |= kBroadcast;

  if (frame.ethertype == EtherType::kArp) {
    if (const auto arp = ArpPacket::decode(frame.payload)) {
      s.kind = FrameKind::kArp;
      if (arp->op == ArpOp::kReply) s.flags |= kArpReply;
      // The claimed binding is the poisoning signal: the ARP watch
      // reads the asserted sender IP→MAC pair, not the L2 header.
      s.src_ip = arp->sender_ip.value;
      s.src_mac = mac_key(arp->sender_mac);
    }
  } else if (frame.ethertype == EtherType::kIpv4) {
    // Header-only parse of the 13-byte datagram preamble; stops before
    // the payload blob so no bytes are copied.
    try {
      util::ByteReader r(frame.payload);
      s.kind = FrameKind::kIpv4;
      s.src_ip = r.u32();
      s.dst_ip = r.u32();
      s.src_port = r.u16();
      s.dst_port = r.u16();
    } catch (const util::SerializationError&) {
      s.kind = FrameKind::kOther;  // malformed: still counted by shape
    }
  }
  return s;
}

namespace {

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Occupancy fraction above which the tap enters sampling mode.
constexpr double kSampleHighWatermark = 0.75;
/// Occupancy fraction below which sampling mode ends.
constexpr double kSampleLowWatermark = 0.25;

}  // namespace

CaptureTap::CaptureTap(CaptureTapConfig config) : config_(config) {
  const std::size_t slots = round_pow2(std::max<std::size_t>(8, config_.ring_slots));
  ring_.resize(slots);
  mask_ = slots - 1;
  high_slots_ = static_cast<std::size_t>(
      static_cast<double>(slots) * kSampleHighWatermark);
  low_slots_ = static_cast<std::size_t>(
      static_cast<double>(slots) * kSampleLowWatermark);
  if (high_slots_ >= slots) high_slots_ = slots - 1;
}

void CaptureTap::capture(sim::Time now, const EthernetFrame& frame) {
  ++stats_.frames_mirrored;

  if (!sampling_ && size_ >= high_slots_) {
    sampling_ = true;
    stride_ = std::max<std::uint32_t>(2, config_.sample_stride);
    stride_phase_ = 0;
    ++stats_.sampling_entered;
  }
  if (sampling_) {
    if (stride_phase_++ % stride_ != 0) {
      ++stats_.frames_sampled_out;
      ++pending_weight_;
      return;
    }
  }
  if (size_ > mask_) {
    // Hard full despite sampling: counted drop, and the stride doubles
    // so a sustained overload converges to what the drain absorbs.
    ++stats_.frames_dropped;
    if (sampling_ && stride_ < kMaxStride) {
      stride_ *= 2;
      ++stats_.stride_escalations;
    }
    return;
  }

  FrameSummary& slot = ring_[head_];
  slot = FrameSummary::summarize(now, frame);
  slot.weight = 1 + pending_weight_;
  pending_weight_ = 0;
  head_ = (head_ + 1) & mask_;
  ++size_;
  ++stats_.frames_captured;
}

void CaptureTap::maybe_exit_sampling() {
  if (sampling_ && size_ <= low_slots_) {
    sampling_ = false;
    stride_ = 1;
    stride_phase_ = 0;
  }
}

std::uint64_t CaptureTap::queued_weight() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0, idx = tail_; i < size_; ++i, idx = (idx + 1) & mask_) {
    total += ring_[idx].weight;
  }
  return total;
}

}  // namespace spire::net
