// Machine model, weekly usage profiles, and the owner workload generator.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "node/machine.hpp"
#include "node/owner.hpp"
#include "node/usage_profile.hpp"
#include "sim/engine.hpp"

namespace integrade::node {

// gtest prints a value parameter into the test's name; print the profile's
// name rather than a dump of its bytes.
void PrintTo(const WeeklyProfile& profile, std::ostream* os) {
  *os << profile.name;
}

namespace {

TEST(TimeHelpers, DayAndSlotIndexing) {
  EXPECT_EQ(day_of_week(0), 0);                       // sim starts Monday
  EXPECT_EQ(day_of_week(5 * kDay), 5);                // Saturday
  EXPECT_EQ(day_of_week(7 * kDay + kHour), 0);        // wraps to Monday
  EXPECT_EQ(slot_of_day(0), 0);
  EXPECT_EQ(slot_of_day(30 * kMinute), 1);
  EXPECT_EQ(slot_of_day(23 * kHour + 59 * kMinute), 47);
  EXPECT_EQ(slot_of_week(kDay), kSlotsPerDay);
  EXPECT_EQ(slot_of_week(kWeek - 1), kSlotsPerWeek - 1);
}

TEST(MachineTest, OwnerLoadClampsAndNotifies) {
  Machine machine(NodeId(1), MachineSpec{});
  int notifications = 0;
  machine.subscribe([&] { ++notifications; });

  OwnerLoad load;
  load.cpu_fraction = 1.5;  // clamped to 1
  load.ram = 100 * kGiB;    // clamped to spec
  load.present = true;
  machine.set_owner_load(load);

  EXPECT_EQ(notifications, 1);
  EXPECT_DOUBLE_EQ(machine.owner_load().cpu_fraction, 1.0);
  EXPECT_EQ(machine.owner_load().ram, machine.spec().ram);
  EXPECT_DOUBLE_EQ(machine.free_cpu_fraction(), 0.0);
  EXPECT_EQ(machine.free_ram(), 0);
}

TEST(MachineTest, PowerOffClearsOwnerSession) {
  Machine machine(NodeId(1), MachineSpec{});
  OwnerLoad load;
  load.present = true;
  load.cpu_fraction = 0.5;
  machine.set_owner_load(load);
  machine.set_up(false);
  EXPECT_FALSE(machine.up());
  EXPECT_FALSE(machine.owner_load().present);
  machine.set_up(true);
  EXPECT_TRUE(machine.up());
}

TEST(Profiles, OfficeWorkerShape) {
  const auto profile = office_worker_profile();
  // Tuesday 10:30 — near-certain presence.
  EXPECT_GT(profile.presence_at(kDay + 10 * kHour + 30 * kMinute), 0.8);
  // Tuesday 3:00 — nearly idle.
  EXPECT_LT(profile.presence_at(kDay + 3 * kHour), 0.1);
  // Lunch dip below the morning level.
  EXPECT_LT(profile.presence_at(kDay + 12 * kHour + 15 * kMinute),
            profile.presence_at(kDay + 11 * kHour));
  // Saturday quiet.
  EXPECT_LT(profile.presence_at(5 * kDay + 11 * kHour), 0.1);
}

TEST(Profiles, NocturnalInvertsTheDay) {
  const auto profile = nocturnal_profile();
  EXPECT_GT(profile.presence_at(22 * kHour), 0.5);
  EXPECT_LT(profile.presence_at(10 * kHour), 0.2);
}

TEST(Profiles, ServerVsIdleExtremes) {
  EXPECT_GT(busy_server_profile().presence_at(3 * kHour), 0.8);
  EXPECT_LT(mostly_idle_profile().presence_at(15 * kHour), 0.1);
}

// The Markov generator must reproduce the profile's stationary presence.
class OwnerStationarity : public ::testing::TestWithParam<WeeklyProfile> {};

INSTANTIATE_TEST_SUITE_P(Profiles, OwnerStationarity,
                         ::testing::Values(office_worker_profile(),
                                           student_lab_profile(),
                                           nocturnal_profile(),
                                           mostly_idle_profile()));

TEST_P(OwnerStationarity, BusyHourFractionTracksProfile) {
  sim::Engine engine;
  Machine machine(NodeId(1), MachineSpec{});
  const auto& profile = GetParam();
  OwnerWorkload owner(engine, machine, profile, Rng(99));
  owner.start();

  // Sample presence every 5 minutes for 4 weeks; compare the weekday
  // 10:00-11:00 block's empirical presence with the profile's value.
  int present = 0;
  int total = 0;
  const double expected = profile.presence_at(10 * kHour + 10 * kMinute);
  for (SimTime t = 0; t < 4 * kWeek; t += 5 * kMinute) {
    engine.run_until(t);
    if (day_of_week(t) < 5) {
      const SimTime tod = t % kDay;
      if (tod >= 10 * kHour && tod < 11 * kHour) {
        ++total;
        if (machine.owner_load().present) ++present;
      }
    }
  }
  ASSERT_GT(total, 100);
  const double observed = static_cast<double>(present) / total;
  EXPECT_NEAR(observed, expected, 0.15);
}

TEST(OwnerWorkload, TransitionsRecordedAndOracleConsistent) {
  sim::Engine engine;
  Machine machine(NodeId(1), MachineSpec{});
  OwnerWorkload owner(engine, machine, office_worker_profile(), Rng(7));
  owner.start();
  engine.run_until(3 * kDay);

  const auto& transitions = owner.transitions();
  ASSERT_FALSE(transitions.empty());
  // Transitions alternate in state.
  for (std::size_t i = 1; i < transitions.size(); ++i) {
    EXPECT_NE(transitions[i].present, transitions[i - 1].present);
    EXPECT_GE(transitions[i].at, transitions[i - 1].at);
  }
  // was_present agrees with the transition trace at each boundary.
  for (const auto& tr : transitions) {
    EXPECT_EQ(owner.was_present(tr.at), tr.present);
  }
}

TEST(OwnerWorkload, IdleRunOracle) {
  sim::Engine engine;
  Machine machine(NodeId(1), MachineSpec{});
  OwnerWorkload owner(engine, machine, office_worker_profile(), Rng(21));
  owner.start();
  engine.run_until(7 * kDay);

  // Pick a time the owner was away; the oracle's idle run must end exactly
  // at the next present-transition.
  const auto& transitions = owner.transitions();
  for (std::size_t i = 0; i + 1 < transitions.size(); ++i) {
    if (!transitions[i].present) {
      const SimTime probe = transitions[i].at + 1;
      const SimDuration run = owner.idle_run_after(probe);
      EXPECT_EQ(probe + run, transitions[i + 1].at);
      break;
    }
  }
  // While present, the idle run is zero.
  for (const auto& tr : transitions) {
    if (tr.present) {
      EXPECT_EQ(owner.idle_run_after(tr.at + 1), 0);
      break;
    }
  }
}

TEST(OwnerWorkload, HolidayRateAndQuietness) {
  sim::Engine engine;
  Machine machine(NodeId(1), MachineSpec{});
  auto profile = office_worker_profile();
  profile.holiday_rate = 0.2;
  OwnerWorkload owner(engine, machine, profile, Rng(41));
  owner.start();
  engine.run_until(20 * kWeek);

  // ~20% of 140 days are holidays.
  const auto holidays = owner.holidays().size();
  EXPECT_GT(holidays, 15u);
  EXPECT_LT(holidays, 45u);

  // On weekday holidays the owner is essentially absent during work hours.
  int present_samples = 0;
  int total_samples = 0;
  for (int day : owner.holidays()) {
    if (day % 7 >= 5) continue;  // only weekday holidays are informative
    for (int hour = 10; hour < 16; ++hour) {
      ++total_samples;
      if (owner.was_present(day * kDay + hour * kHour)) ++present_samples;
    }
  }
  ASSERT_GT(total_samples, 20);
  EXPECT_LT(static_cast<double>(present_samples) / total_samples, 0.15);
}

TEST(OwnerWorkload, BusyCpuFollowsProfileMean) {
  sim::Engine engine;
  Machine machine(NodeId(1), MachineSpec{});
  auto profile = busy_server_profile();
  OwnerWorkload owner(engine, machine, profile, Rng(5));
  owner.start();

  double sum = 0;
  int n = 0;
  for (SimTime t = 0; t < 2 * kDay; t += 5 * kMinute) {
    engine.run_until(t);
    if (machine.owner_load().present) {
      sum += machine.owner_load().cpu_fraction;
      ++n;
    }
  }
  ASSERT_GT(n, 100);
  EXPECT_NEAR(sum / n, profile.active_cpu_mean, 0.1);
}

}  // namespace
}  // namespace integrade::node
