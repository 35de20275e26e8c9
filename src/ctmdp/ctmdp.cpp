#include "ctmdp/ctmdp.hpp"

#include <algorithm>
#include <cmath>

#include "ctmc/ctmc.hpp"
#include "support/errors.hpp"
#include "support/numerics.hpp"

namespace unicon {

Ctmdp ctmdp_from_ctmc(const Ctmc& chain) {
  CtmdpBuilder b;
  b.ensure_states(chain.num_states());
  b.set_initial(chain.initial());
  const WordId tau_word = b.word_table()->intern_single(kTau);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    const auto row = chain.out(s);
    if (row.empty()) continue;
    b.begin_transition(s, tau_word);
    for (const SparseEntry& e : row) b.add_rate(e.col, e.value);
  }
  return b.build();
}

std::optional<double> Ctmdp::uniform_rate(double tol) const {
  if (exit_.empty()) return 0.0;
  const double e0 = exit_[0];
  for (double e : exit_) {
    if (!rates_agree(e, e0, tol)) return std::nullopt;
  }
  return e0;
}

Ctmdp Ctmdp::uniformize(double rate) const {
  double target = rate;
  if (target == 0.0) {
    for (double e : exit_) target = std::max(target, e);
  }
  CtmdpBuilder b(actions_, words_);
  b.ensure_states(num_states());
  b.set_initial(initial_);
  for (std::uint64_t t = 0; t < num_transitions(); ++t) {
    const StateId s = source_[t];
    b.begin_transition(s, labels_[t]);
    for (const SparseEntry& e : rates(t)) b.add_rate(e.col, e.value);
    const double pad = target - exit_[t];
    if (pad < -kUniformityTolerance * target) {
      throw UniformityError("Ctmdp::uniformize: rate below a transition exit rate");
    }
    if (pad > kUniformityTolerance * target) b.add_rate(s, pad);
  }
  return b.build();
}

std::size_t Ctmdp::memory_bytes() const {
  return state_row_.size() * sizeof(std::uint64_t) + source_.size() * sizeof(StateId) +
         labels_.size() * sizeof(WordId) + trans_row_.size() * sizeof(std::uint64_t) +
         entries_.size() * sizeof(SparseEntry) + exit_.size() * sizeof(double);
}

CtmdpBuilder::CtmdpBuilder(std::shared_ptr<ActionTable> actions, std::shared_ptr<WordTable> words)
    : actions_(actions ? std::move(actions) : std::make_shared<ActionTable>()),
      words_(words ? std::move(words) : std::make_shared<WordTable>()) {}

StateId CtmdpBuilder::add_state() { return static_cast<StateId>(num_states_++); }

void CtmdpBuilder::ensure_states(std::size_t n) {
  if (n > num_states_) num_states_ = n;
}

void CtmdpBuilder::flush() {
  if (!open_) return;
  PendingTransition& p = transitions_.back();
  p.last = entries_.size();
  if (p.first == p.last) {
    throw ModelError("Ctmdp: transition without rate entries");
  }
  open_ = false;
}

void CtmdpBuilder::begin_transition(StateId from, WordId word) {
  flush();
  ensure_states(from + 1);
  transitions_.push_back(PendingTransition{from, word, entries_.size(), entries_.size()});
  open_ = true;
}

void CtmdpBuilder::begin_transition(StateId from, std::string_view action) {
  begin_transition(from, words_->intern_single(actions_->intern(action)));
}

void CtmdpBuilder::add_rate(StateId to, double rate) {
  if (!open_) throw ModelError("Ctmdp: add_rate before begin_transition");
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw ModelError("Ctmdp: rate must be positive and finite");
  }
  ensure_states(to + 1);
  entries_.push_back(SparseEntry{to, rate});
}

Ctmdp CtmdpBuilder::build() {
  flush();
  if (num_states_ == 0) throw ModelError("Ctmdp: at least one state required");
  if (initial_ >= num_states_) throw ModelError("Ctmdp: initial state out of range");

  const auto by_source = [](const PendingTransition& a, const PendingTransition& b) {
    return a.from < b.from;
  };
  if (!std::is_sorted(transitions_.begin(), transitions_.end(), by_source)) {
    std::stable_sort(transitions_.begin(), transitions_.end(), by_source);
    // Regroup the pool in source order, so rows are merged in place below.
    std::vector<SparseEntry> pool;
    pool.reserve(entries_.size());
    for (PendingTransition& p : transitions_) {
      const std::uint64_t first = pool.size();
      pool.insert(pool.end(), entries_.begin() + static_cast<std::ptrdiff_t>(p.first),
                  entries_.begin() + static_cast<std::ptrdiff_t>(p.last));
      p.first = first;
      p.last = pool.size();
    }
    entries_ = std::move(pool);
  }

  Ctmdp c;
  c.actions_ = actions_;
  c.words_ = words_;
  c.initial_ = initial_;
  c.state_row_.assign(num_states_ + 1, 0);
  c.source_.reserve(transitions_.size());
  c.labels_.reserve(transitions_.size());
  c.trans_row_.reserve(transitions_.size() + 1);
  c.trans_row_.push_back(0);
  c.exit_.reserve(transitions_.size());

  // Rows are contiguous in the pool and in order, so the merged row is
  // written over entries already read.
  std::uint64_t out = 0;
  std::size_t ti = 0;
  for (StateId s = 0; s < num_states_; ++s) {
    c.state_row_[s] = c.labels_.size();
    for (; ti < transitions_.size() && transitions_[ti].from == s; ++ti) {
      const PendingTransition& p = transitions_[ti];
      // Merge duplicate targets within one rate function.
      std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(p.first),
                entries_.begin() + static_cast<std::ptrdiff_t>(p.last),
                [](const SparseEntry& a, const SparseEntry& b) { return a.col < b.col; });
      double exit = 0.0;
      const std::uint64_t row = out;
      for (std::uint64_t i = p.first; i < p.last; ++i) {
        const SparseEntry e = entries_[i];
        if (out > row && entries_[out - 1].col == e.col) {
          entries_[out - 1].value += e.value;
        } else {
          entries_[out++] = e;
        }
        exit += e.value;
      }
      c.source_.push_back(p.from);
      c.labels_.push_back(p.word);
      c.trans_row_.push_back(out);
      c.exit_.push_back(exit);
    }
  }
  c.state_row_[num_states_] = c.labels_.size();
  entries_.resize(out);
  c.entries_ = std::move(entries_);

  num_states_ = 0;
  initial_ = 0;
  transitions_ = {};
  entries_ = {};
  return c;
}

}  // namespace unicon
