#include "common/config.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace masc {
namespace {

TEST(Config, DefaultIsPrototypeShape) {
  MachineConfig cfg;
  EXPECT_EQ(cfg.num_pes, 16u);
  EXPECT_EQ(cfg.num_threads, 16u);
  EXPECT_EQ(cfg.word_width, 8u);
  EXPECT_EQ(cfg.local_mem_bytes, 1024u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, BroadcastLatencyBinaryTree) {
  MachineConfig cfg;
  cfg.broadcast_arity = 2;
  cfg.num_pes = 16;
  EXPECT_EQ(cfg.broadcast_latency(), 4u);
  cfg.num_pes = 1;
  EXPECT_EQ(cfg.broadcast_latency(), 0u);
  cfg.num_pes = 17;
  EXPECT_EQ(cfg.broadcast_latency(), 5u);
}

TEST(Config, BroadcastLatencyHigherArity) {
  MachineConfig cfg;
  cfg.num_pes = 16;
  cfg.broadcast_arity = 4;
  EXPECT_EQ(cfg.broadcast_latency(), 2u);
  cfg.broadcast_arity = 16;
  EXPECT_EQ(cfg.broadcast_latency(), 1u);
}

TEST(Config, ReductionLatencyIsLog2) {
  MachineConfig cfg;
  cfg.num_pes = 16;
  EXPECT_EQ(cfg.reduction_latency(), 4u);
  cfg.num_pes = 1024;
  EXPECT_EQ(cfg.reduction_latency(), 10u);
}

TEST(Config, NonPipelinedNetworkHasZeroLatency) {
  MachineConfig cfg;
  cfg.pipelined_network = false;
  EXPECT_EQ(cfg.broadcast_latency(), 0u);
  EXPECT_EQ(cfg.reduction_latency(), 0u);
}

TEST(Config, EffectiveThreads) {
  MachineConfig cfg;
  cfg.num_threads = 16;
  EXPECT_EQ(cfg.effective_threads(), 16u);
  cfg.multithreading = false;
  EXPECT_EQ(cfg.effective_threads(), 1u);
}

TEST(Config, ValidateRejectsBadWidth) {
  MachineConfig cfg;
  cfg.word_width = 12;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, ValidateRejectsZeroPes) {
  MachineConfig cfg;
  cfg.num_pes = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, ValidateRejectsUnaryBroadcastTree) {
  MachineConfig cfg;
  cfg.broadcast_arity = 1;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, ValidateRejectsTooManyRegs) {
  MachineConfig cfg;
  cfg.num_scalar_regs = 64;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = MachineConfig{};
  cfg.num_flag_regs = 16;  // mask field is 3 bits
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, NameEncodesShape) {
  MachineConfig cfg;
  EXPECT_EQ(cfg.name(), "p16.t16.w8.k2");
  cfg.multithreading = false;
  cfg.pipelined_network = false;
  EXPECT_EQ(cfg.name(), "p16.t1.w8.k2.nonpipe");
}

TEST(Config, SequentialUnitLatencyTracksWidth) {
  MachineConfig cfg;
  cfg.word_width = 8;
  EXPECT_EQ(cfg.sequential_mul_cycles(), 8u);
  cfg.word_width = 32;
  EXPECT_EQ(cfg.sequential_div_cycles(), 32u);
}

}  // namespace
}  // namespace masc
