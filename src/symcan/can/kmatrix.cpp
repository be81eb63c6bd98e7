#include "symcan/can/kmatrix.hpp"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace symcan {

void KMatrix::add_node(EcuNode node) {
  node.validate();
  if (find_node(node.name) != nullptr)
    throw std::invalid_argument("KMatrix: duplicate node '" + node.name + "'");
  nodes_.push_back(std::move(node));
}

const EcuNode* KMatrix::find_node(const std::string& name) const {
  for (const auto& n : nodes_)
    if (n.name == name) return &n;
  return nullptr;
}

void KMatrix::add_message(CanMessage m) {
  m.validate();
  messages_.push_back(std::move(m));
}

const CanMessage* KMatrix::find_message(const std::string& name) const {
  for (const auto& m : messages_)
    if (m.name == name) return &m;
  return nullptr;
}

std::vector<std::size_t> KMatrix::priority_order() const {
  std::vector<std::size_t> idx(messages_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return messages_[a].arbitration_rank() < messages_[b].arbitration_rank();
  });
  return idx;
}

void KMatrix::validate() const {
  // Flag each message whose value repeats an earlier message's: sort the
  // indices by (value, index) and compare neighbours.
  std::vector<std::size_t> order(messages_.size());
  std::vector<std::uint8_t> repeats(messages_.size(), 0);
  const auto mark = [&](std::uint8_t bit, const auto& of) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return (std::pair{of(a), a} <=> std::pair{of(b), b}) < 0;
    });
    for (std::size_t i = 1; i < order.size(); ++i)
      if (of(order[i - 1]) == of(order[i])) repeats[order[i]] |= bit;
  };
  // Standard and extended identifiers arbitrate in distinct spaces (the
  // IDE bit participates), so uniqueness is per (format, id).
  mark(1, [&](std::size_t i) {
    return (messages_[i].format == FrameFormat::kExtended ? std::uint64_t{1} << 32 : 0) |
           messages_[i].id;
  });
  mark(2, [&](std::size_t i) { return std::string_view{messages_[i].name}; });
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const CanMessage& m = messages_[i];
    m.validate();
    if (repeats[i] & 1)
      throw std::invalid_argument("KMatrix: duplicate CAN id for message '" + m.name + "'");
    if (repeats[i] & 2)
      throw std::invalid_argument("KMatrix: duplicate message name '" + m.name + "'");
    if (find_node(m.sender) == nullptr)
      throw std::invalid_argument("KMatrix: message '" + m.name + "' sent by unknown node '" +
                                  m.sender + "'");
    for (const auto& r : m.receivers)
      if (find_node(r) == nullptr)
        throw std::invalid_argument("KMatrix: message '" + m.name + "' received by unknown node '" +
                                    r + "'");
  }
}

double KMatrix::utilization(bool worst_case_stuffing) const {
  double u = 0;
  for (const auto& m : messages_) {
    const Duration c = m.wcet(timing_, worst_case_stuffing);
    u += c.as_s() / m.period.as_s();
  }
  return u;
}

double KMatrix::node_traffic_bps(const std::string& node, bool worst_case_stuffing) const {
  double bits_per_s = 0;
  for (const auto& m : messages_) {
    if (m.sender != node) continue;
    const auto bits = worst_case_stuffing ? frame_bits_worst_case(m.format, m.payload_bytes)
                                          : frame_bits_unstuffed(m.format, m.payload_bytes);
    bits_per_s += static_cast<double>(bits) / m.period.as_s();
  }
  return bits_per_s;
}

}  // namespace symcan
