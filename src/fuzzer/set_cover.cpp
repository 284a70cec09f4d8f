#include "fuzzer/set_cover.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aegis::fuzzer {

namespace {

/// Deterministic gadget ordering: lexicographic on (reset_uid,
/// trigger_uid). The greedy loop scans candidates in this order and
/// replaces the incumbent only on a STRICT improvement, so every tie —
/// same coverage, same total delta — resolves to the lowest gadget key
/// regardless of hash-table iteration order or report insertion order.
bool gadget_key_less(const Gadget& a, const Gadget& b) {
  if (a.reset_uid != b.reset_uid) return a.reset_uid < b.reset_uid;
  return a.trigger_uid < b.trigger_uid;
}

/// One greedy candidate: a gadget and its per-event deltas sorted by event
/// id. Building the list through sorted vectors rather than iterating hash
/// maps fixes BOTH sources of nondeterminism an earlier implementation had:
/// the scan order of the gadgets and the floating-point summation order of
/// their deltas.
struct Candidate {
  Gadget gadget;
  /// (event, delta) while collecting; (universe slot, delta) once the
  /// universe is sorted. Slots follow event order, so the list stays
  /// sorted by event either way.
  std::vector<std::pair<std::uint32_t, double>> effects;
};

}  // namespace

GadgetCover minimal_gadget_cover(const FuzzResult& result) {
  GadgetCover cover;

  // One candidate per distinct gadget, found through one gadget -> index
  // map (lookups only; every traversal that feeds the result walks the
  // vectors). Effects are appended as confirmed, then sorted and merged.
  std::unordered_map<Gadget, std::size_t, GadgetHash> index_of;
  std::vector<Candidate> candidates;
  std::vector<std::uint32_t>& universe = cover.covered_events;
  for (const EventFuzzReport& report : result.reports) {
    if (report.confirmed.empty()) {
      cover.uncovered_events.push_back(report.event_id);
      continue;
    }
    universe.push_back(report.event_id);
    for (const ConfirmedGadget& g : report.confirmed) {
      const auto [it, fresh] = index_of.try_emplace(g.gadget, candidates.size());
      if (fresh) candidates.push_back(Candidate{g.gadget, {}});
      candidates[it->second].effects.emplace_back(report.event_id,
                                                  g.median_delta);
    }
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());

  for (Candidate& c : candidates) {
    // Sort by event, then keep one effect per event: the largest delta, and
    // never less than 0.0 (a gadget whose every delta for an event is
    // negative still covers it, with zero effect). Folding max from 0.0
    // gives the same bits in any order, so the order among one event's
    // deltas does not matter.
    std::sort(c.effects.begin(), c.effects.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < c.effects.size();) {
      const std::uint32_t event = c.effects[i].first;
      double best = 0.0;
      for (; i < c.effects.size() && c.effects[i].first == event; ++i) {
        best = std::max(best, c.effects[i].second);
      }
      const auto slot =
          std::lower_bound(universe.begin(), universe.end(), event) -
          universe.begin();
      c.effects[kept++] = {static_cast<std::uint32_t>(slot), best};
    }
    c.effects.resize(kept);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return gadget_key_less(a.gadget, b.gadget);
            });

  std::vector<char> uncovered(universe.size(), 1);
  std::size_t uncovered_count = universe.size();
  std::vector<char> chosen(candidates.size(), 0);
  while (uncovered_count > 0) {
    // Pick the gadget covering the most still-uncovered events; break ties
    // by total delta (stronger disturbance preferred), then by lowest
    // gadget key (scan order + strict improvement).
    std::size_t best = candidates.size();
    std::size_t best_newly = 0;
    double best_delta = 0.0;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      const Candidate& c = candidates[k];
      std::size_t newly = 0;
      double delta = 0.0;
      for (const auto& [slot, d] : c.effects) {
        if (uncovered[slot] != 0) {
          ++newly;
          delta += d;
        }
      }
      if (newly > best_newly ||
          (newly == best_newly && newly > 0 && delta > best_delta)) {
        best = k;
        best_newly = newly;
        best_delta = delta;
      }
    }
    if (best_newly == 0) break;  // defensive; cannot happen
    chosen[best] = 1;
    cover.gadgets.push_back(candidates[best].gadget);
    for (const auto& [slot, d] : candidates[best].effects) {
      uncovered_count -= uncovered[slot];
      uncovered[slot] = 0;
    }
  }

  // Segment effect: executing every chosen gadget once sums their deltas,
  // accumulated in gadget-key order over event-sorted effect lists — a
  // fixed floating-point evaluation order.
  std::vector<double> segment(universe.size(), 0.0);
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (chosen[k] == 0) continue;
    for (const auto& [slot, d] : candidates[k].effects) segment[slot] += d;
  }
  cover.segment_effect.reserve(universe.size());
  for (std::size_t slot = 0; slot < universe.size(); ++slot) {
    cover.segment_effect.emplace_back(universe[slot], segment[slot]);
  }
  return cover;
}

}  // namespace aegis::fuzzer
