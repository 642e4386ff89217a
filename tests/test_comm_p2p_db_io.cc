// Tests for point-to-point messaging on the SPMD substrate and database
// save/load persistence.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "comm/spmd.h"
#include "gs2/database.h"
#include "gs2/surface.h"

namespace protuner {
namespace {

TEST(CommP2P, RoundTripBetweenTwoRanks) {
  comm::spmd_run(2, [&](comm::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, {1.0, 2.0, 3.0});
      const auto reply = c.recv();
      EXPECT_EQ(reply, (std::vector<double>{6.0}));
    } else {
      const auto msg = c.recv();
      ASSERT_EQ(msg.size(), 3u);
      c.send(0, {msg[0] + msg[1] + msg[2]});
    }
  });
}

TEST(CommP2P, FifoOrderFromOneSender) {
  comm::spmd_run(2, [&](comm::Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        c.send(1, {static_cast<double>(i)});
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        const auto msg = c.recv();
        EXPECT_DOUBLE_EQ(msg[0], static_cast<double>(i));
      }
    }
  });
}

TEST(CommP2P, ManyToOneGather) {
  std::atomic<int> sum{0};
  comm::spmd_run(5, [&](comm::Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        sum += static_cast<int>(c.recv()[0]);
      }
    } else {
      c.send(0, {static_cast<double>(c.rank())});
    }
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3 + 4);
}

TEST(CommP2P, HasMessageProbe) {
  comm::spmd_run(2, [&](comm::Communicator& c) {
    if (c.rank() == 0) {
      EXPECT_FALSE(c.has_message());
      c.barrier();      // rank 1 sends before this barrier completes...
      c.barrier();      // ...and signals with the second barrier
      EXPECT_TRUE(c.has_message());
      (void)c.recv();
    } else {
      c.barrier();
      c.send(0, {42.0});
      c.barrier();
    }
  });
}

TEST(CommP2P, SelfSendWorks) {
  comm::spmd_run(1, [&](comm::Communicator& c) {
    c.send(0, {9.0});
    EXPECT_TRUE(c.has_message());
    EXPECT_DOUBLE_EQ(c.recv()[0], 9.0);
  });
}

// ------------------------------------------------------------- Database I/O

TEST(DatabaseIo, SaveLoadRoundTrip) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db = gs2::Database::measure(space, surface, {});

  std::stringstream buffer;
  db.save(buffer);
  const gs2::Database loaded = gs2::Database::load(buffer, space);

  EXPECT_EQ(loaded.entries(), db.entries());
  const core::Point probe{16.0, 8.0, 4.0};
  EXPECT_DOUBLE_EQ(*loaded.exact(probe), *db.exact(probe));
  // Interpolated lookups agree too (same entries, same options).
  const core::Point off{16.0, 9.0, 4.0};
  EXPECT_DOUBLE_EQ(loaded.clean_time(off), db.clean_time(off));
}

TEST(DatabaseIo, LoadRejectsArityMismatch) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1.0,2.0,3.0\n");  // 2 coords + value for 1-D
  EXPECT_THROW((void)gs2::Database::load(buffer, space), std::runtime_error);
}

TEST(DatabaseIo, LoadRejectsGarbage) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1.0,banana\n");
  EXPECT_THROW((void)gs2::Database::load(buffer, space), std::runtime_error);
}

TEST(DatabaseIo, RejectsNonPositiveTimesAndWrongArity) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1,2.5\n3,-4.5\n");
  EXPECT_THROW((void)gs2::Database::load(buffer, space),
               std::invalid_argument);
  EXPECT_THROW(gs2::Database(space, {}, {{core::Point{1.0}, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(gs2::Database(space, {}, {{core::Point{1.0, 2.0}, 1.0}}),
               std::invalid_argument);
}

TEST(DatabaseIo, LoadSkipsEmptyLines) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1,2.5\n\n3,4.5\n");
  const gs2::Database db = gs2::Database::load(buffer, space);
  EXPECT_EQ(db.entries(), 2u);
  EXPECT_DOUBLE_EQ(*db.exact(core::Point{3.0}), 4.5);
}

TEST(DatabaseIo, RoundTripPreservesFullPrecision) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  const gs2::Database db(space, {}, {{core::Point{1.0}, 0.12345678901234567}});
  std::stringstream buffer;
  db.save(buffer);
  const gs2::Database loaded = gs2::Database::load(buffer, space);
  EXPECT_DOUBLE_EQ(*loaded.exact(core::Point{1.0}), 0.12345678901234567);
}

}  // namespace
}  // namespace protuner
