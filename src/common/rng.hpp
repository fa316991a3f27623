// Deterministic random number generation.
//
// Every stochastic component (owner workloads, network jitter, schedulers
// breaking ties) draws from an Rng seeded from the experiment seed, so every
// run is exactly reproducible. The core generator is splitmix64 feeding a
// xoshiro256**-style state, which is small, fast, and well distributed —
// more than enough for workload synthesis.
#pragma once

#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

namespace integrade {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1e7e6e5d4c3b2a19ULL);

  /// Derive an independent child stream; used to give each node / component
  /// its own stream so adding a component never perturbs the others.
  [[nodiscard]] Rng fork();

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal with the given mean and standard deviation (Box-Muller).
  double normal(double mean, double stddev);

  /// Pareto (heavy-tailed) with shape alpha > 0 and minimum xm > 0.
  double pareto(double alpha, double xm);

  /// Index in [0, weights.size()) drawn proportionally to weights.
  /// Requires a nonempty vector with nonnegative entries, not all zero.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Full generator state, exposed so control-plane snapshots can persist a
  /// component's stream mid-run and restore it bit-exactly: after
  /// set_state(state()), every subsequent draw matches the original stream
  /// (including a buffered Box-Muller spare).
  struct State {
    std::array<std::uint64_t, 4> s{};
    bool have_spare_normal = false;
    double spare_normal = 0.0;

    template <class S>
    static auto fields(S& v) {
      return std::tie(v.s, v.have_spare_normal, v.spare_normal);
    }
  };
  [[nodiscard]] State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, have_spare_normal_, spare_normal_};
  }
  void set_state(const State& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
    have_spare_normal_ = state.have_spare_normal;
    spare_normal_ = state.spare_normal;
  }

  /// Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace integrade
