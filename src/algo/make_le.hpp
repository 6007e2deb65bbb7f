// The AlgorithmId -> algorithm composition, written once for every
// platform.  algo::make_sim_le and hw::make_hw_le are thin wrappers over
// make_le<P>; the hw wrapper adds only its hw-only cases.
#pragma once

#include <memory>

#include "algo/aa.hpp"
#include "algo/abortable.hpp"
#include "algo/cascade.hpp"
#include "algo/chain.hpp"
#include "algo/combined.hpp"
#include "algo/platform.hpp"
#include "algo/ratrace.hpp"
#include "algo/registry.hpp"
#include "algo/tournament.hpp"
#include "support/assert.hpp"

namespace rts::algo {

/// Builds algorithm `id` for up to n processes on platform P.  Returns
/// nullptr for the hw-only ids (kNativeAtomic, kDivergeHw), which have no
/// platform-generic form.
template <Platform P>
std::unique_ptr<ILeaderElect<P>> make_le(AlgorithmId id,
                                         typename P::Arena arena, int n) {
  switch (id) {
    case AlgorithmId::kLogStarChain:
      return std::make_unique<GeChainLe<P>>(
          arena, n, fig1_truncated_factory<P>(n, default_live_prefix(n)));
    case AlgorithmId::kSiftChain:
      return std::make_unique<GeChainLe<P>>(arena, n,
                                            sift_truncated_factory<P>(n));
    case AlgorithmId::kSiftCascade:
      return std::make_unique<SiftCascadeLe<P>>(arena, n);
    case AlgorithmId::kRatRace:
      return std::make_unique<RatRaceOriginal<P>>(arena, n);
    case AlgorithmId::kRatRacePath:
      return std::make_unique<RatRacePath<P>>(arena, n);
    case AlgorithmId::kCombinedLogStar:
      return std::make_unique<CombinedLe<P>>(
          arena, n,
          std::make_unique<GeChainLe<P>>(
              arena, n, fig1_truncated_factory<P>(n, default_live_prefix(n))));
    case AlgorithmId::kCombinedSift:
      return std::make_unique<CombinedLe<P>>(
          arena, n, std::make_unique<SiftCascadeLe<P>>(arena, n));
    case AlgorithmId::kTournament:
      return std::make_unique<TournamentLe<P>>(arena, n);
    case AlgorithmId::kAaSiftRatRace:
      return std::make_unique<AaSiftRatRaceLe<P>>(arena, n);
    case AlgorithmId::kAbortableRace:
      return std::make_unique<AbortableRace<P>>(arena, n);
    case AlgorithmId::kNativeAtomic:
    case AlgorithmId::kDivergeHw:
      return nullptr;
  }
  RTS_ASSERT_MSG(false, "unknown algorithm id");
  return nullptr;
}

}  // namespace rts::algo
