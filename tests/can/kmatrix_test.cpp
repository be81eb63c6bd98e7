#include "symcan/can/kmatrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace symcan {
namespace {

KMatrix small_matrix() {
  KMatrix km{"test", BitTiming{500'000}};
  EcuNode a;
  a.name = "A";
  km.add_node(a);
  EcuNode b;
  b.name = "B";
  b.controller = ControllerType::kBasicCan;
  b.tx_buffers = 2;
  km.add_node(b);

  CanMessage m1;
  m1.name = "fast";
  m1.id = 0x10;
  m1.payload_bytes = 8;
  m1.period = Duration::ms(10);
  m1.sender = "A";
  m1.receivers = {"B"};
  km.add_message(m1);

  CanMessage m2;
  m2.name = "slow";
  m2.id = 0x20;
  m2.payload_bytes = 4;
  m2.period = Duration::ms(100);
  m2.sender = "B";
  m2.receivers = {"A"};
  km.add_message(m2);
  return km;
}

TEST(KMatrix, FindNodeAndMessage) {
  const KMatrix km = small_matrix();
  ASSERT_NE(km.find_node("A"), nullptr);
  EXPECT_EQ(km.find_node("A")->name, "A");
  EXPECT_EQ(km.find_node("Z"), nullptr);
  ASSERT_NE(km.find_message("fast"), nullptr);
  EXPECT_EQ(km.find_message("fast")->id, 0x10u);
  EXPECT_EQ(km.find_message("nope"), nullptr);
}

TEST(KMatrix, DuplicateNodeRejected) {
  KMatrix km = small_matrix();
  EcuNode dup;
  dup.name = "A";
  EXPECT_THROW(km.add_node(dup), std::invalid_argument);
}

TEST(KMatrix, PriorityOrderSortsById) {
  KMatrix km{"t", BitTiming{500'000}};
  EcuNode n;
  n.name = "N";
  km.add_node(n);
  for (int i = 0; i < 4; ++i) {
    CanMessage m;
    m.name = "m" + std::to_string(i);
    m.id = static_cast<CanId>(0x40 - i * 0x10);  // descending IDs
    m.period = Duration::ms(10);
    m.sender = "N";
    m.receivers = {"N"};
    km.add_message(m);
  }
  const auto order = km.priority_order();
  ASSERT_EQ(order.size(), 4u);
  // Highest priority (lowest id) first: message added last has lowest id.
  EXPECT_EQ(km.messages()[order[0]].name, "m3");
  EXPECT_EQ(km.messages()[order[3]].name, "m0");
}

TEST(KMatrixValidate, AcceptsConsistentMatrix) { EXPECT_NO_THROW(small_matrix().validate()); }

TEST(KMatrixValidate, RejectsDuplicateIds) {
  KMatrix km = small_matrix();
  CanMessage m;
  m.name = "dup";
  m.id = 0x10;
  m.period = Duration::ms(10);
  m.sender = "A";
  km.add_message(m);
  EXPECT_THROW(km.validate(), std::invalid_argument);
}

TEST(KMatrixValidate, RejectsDuplicateNames) {
  KMatrix km = small_matrix();
  CanMessage m;
  m.name = "fast";
  m.id = 0x99;
  m.period = Duration::ms(10);
  m.sender = "A";
  km.add_message(m);
  EXPECT_THROW(km.validate(), std::invalid_argument);
}

TEST(KMatrixValidate, RejectsUnknownSender) {
  KMatrix km = small_matrix();
  CanMessage m;
  m.name = "ghost";
  m.id = 0x30;
  m.period = Duration::ms(10);
  m.sender = "NOPE";
  km.add_message(m);
  EXPECT_THROW(km.validate(), std::invalid_argument);
}

TEST(KMatrixValidate, RejectsUnknownReceiver) {
  KMatrix km = small_matrix();
  CanMessage m;
  m.name = "ghostrx";
  m.id = 0x30;
  m.period = Duration::ms(10);
  m.sender = "A";
  m.receivers = {"NOPE"};
  km.add_message(m);
  EXPECT_THROW(km.validate(), std::invalid_argument);
}

/// The text of the error validate() throws, or "" when it accepts.
std::string first_error(const KMatrix& km) {
  try {
    km.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

CanMessage message(std::string name, CanId id, std::string sender) {
  CanMessage m;
  m.name = std::move(name);
  m.id = id;
  m.period = Duration::ms(10);
  m.sender = std::move(sender);
  return m;
}

TEST(KMatrixValidate, NamesTheLaterMessageOfEachDuplicate) {
  KMatrix ids = small_matrix();
  ids.add_message(message("dup", 0x20, "A"));
  EXPECT_EQ(first_error(ids), "KMatrix: duplicate CAN id for message 'dup'");

  KMatrix names = small_matrix();
  names.add_message(message("fast", 0x99, "A"));
  EXPECT_EQ(first_error(names), "KMatrix: duplicate message name 'fast'");

  KMatrix sender = small_matrix();
  sender.add_message(message("ghost", 0x30, "NOPE"));
  EXPECT_EQ(first_error(sender), "KMatrix: message 'ghost' sent by unknown node 'NOPE'");

  KMatrix receiver = small_matrix();
  CanMessage rx = message("ghostrx", 0x30, "A");
  rx.receivers = {"B", "NOPE"};
  receiver.add_message(rx);
  EXPECT_EQ(first_error(receiver), "KMatrix: message 'ghostrx' received by unknown node 'NOPE'");
}

TEST(KMatrixValidate, FirstProblemInMessageOrderWins) {
  // A duplicate ID late in the matrix whose ID sorts first loses to an
  // unknown sender earlier in the matrix...
  KMatrix km = small_matrix();
  km.add_message(message("early", 0x05, "A"));
  km.add_message(message("orphan", 0x40, "NOPE"));
  km.add_message(message("late", 0x05, "B"));
  EXPECT_EQ(first_error(km), "KMatrix: message 'orphan' sent by unknown node 'NOPE'");

  // ...and within one message the ID is checked before the name.
  KMatrix both = small_matrix();
  both.add_message(message("slow", 0x10, "A"));
  EXPECT_EQ(first_error(both), "KMatrix: duplicate CAN id for message 'slow'");

  // A standard and an extended frame may share the number.
  KMatrix formats = small_matrix();
  CanMessage ext = message("ext", 0x10, "A");
  ext.format = FrameFormat::kExtended;
  formats.add_message(ext);
  EXPECT_EQ(first_error(formats), "");
}

TEST(KMatrix, UtilizationMatchesHandComputation) {
  const KMatrix km = small_matrix();
  // fast: 135 bits * 2us = 270us per 10ms = 0.027
  // slow: (55+40)=95 bits * 2us = 190us per 100ms = 0.0019
  EXPECT_NEAR(km.utilization(true), 0.027 + 0.0019, 1e-9);
  // Unstuffed: 111 bits -> 222us/10ms; 34+32+13=79 bits -> 158us/100ms.
  EXPECT_NEAR(km.utilization(false), 0.0222 + 0.00158, 1e-9);
}

TEST(KMatrix, NodeTrafficSplitsBySender) {
  const KMatrix km = small_matrix();
  EXPECT_NEAR(km.node_traffic_bps("A", true), 135.0 / 10e-3, 1e-6);
  EXPECT_NEAR(km.node_traffic_bps("B", true), 95.0 / 100e-3, 1e-6);
  EXPECT_EQ(km.node_traffic_bps("Z", true), 0.0);
}

TEST(EcuNodeValidate, RejectsBadTxBuffers) {
  EcuNode n;
  n.name = "X";
  n.tx_buffers = 0;
  EXPECT_THROW(n.validate(), std::invalid_argument);
}

TEST(ControllerTypeNames, ToString) {
  EXPECT_STREQ(to_string(ControllerType::kFullCan), "fullCAN");
  EXPECT_STREQ(to_string(ControllerType::kBasicCan), "basicCAN");
}

}  // namespace
}  // namespace symcan
