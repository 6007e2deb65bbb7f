#include "campaign/presets.hpp"

namespace rts::campaign {

namespace {

using algo::AdversaryId;
using algo::AlgorithmId;

std::vector<Preset> build_presets() {
  std::vector<Preset> presets;

  {
    CampaignSpec spec;
    spec.name = "logstar";
    spec.algorithms = {AlgorithmId::kLogStarChain};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = standard_contention_sweep();
    spec.trials = 120;
    spec.seed = 42;
    presets.push_back({"logstar",
                       "E2: O(log* k) leader election (Fig-1 chain)",
                       "expected step complexity O(log* k) vs "
                       "location-oblivious adversary, O(n) registers "
                       "(Theorem 2.3)",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "sifting";
    spec.algorithms = {AlgorithmId::kSiftChain};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = standard_contention_sweep();
    spec.trials = 120;
    spec.seed = 11;
    presets.push_back({"sifting",
                       "E3: sifting chain steps vs k",
                       "O(log log n) steps non-adaptive vs R/W-oblivious "
                       "adversary (Section 2.3)",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "sifting-adaptive";
    spec.algorithms = {AlgorithmId::kSiftCascade, AlgorithmId::kSiftChain};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {2, 4, 8, 16, 64, 256, 1024, 4096};
    spec.fixed_n = 4096;
    spec.trials = 120;
    spec.seed = 13;
    presets.push_back({"sifting-adaptive",
                       "E3: adaptivity at fixed n = 4096 (cascade vs chain)",
                       "cascade steps track O(log log k), the plain chain "
                       "pays its n-sized schedule (Theorem 2.4)",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "ratrace";
    spec.algorithms = {AlgorithmId::kRatRace, AlgorithmId::kRatRacePath};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = standard_contention_sweep();
    spec.trials = 100;
    spec.seed = 21;
    presets.push_back({"ratrace",
                       "E4/E8: RatRace original vs elimination-path variant",
                       "both variants stay O(log k) expected steps; the path "
                       "variant needs Theta(n) instead of Theta(n^3) "
                       "registers (Section 3)",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "ratrace-space";
    spec.algorithms = {AlgorithmId::kRatRace, AlgorithmId::kRatRacePath};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {16, 32, 64, 128, 256, 512};
    spec.trials = 2;
    spec.seed = 1;
    presets.push_back({"ratrace-space",
                       "E4: RatRace structure size at full contention",
                       "declared registers Theta(n^3) -> Theta(n) at equal "
                       "runtime footprint (Section 3)",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "combined-weak";
    spec.algorithms = {
        AlgorithmId::kLogStarChain,   AlgorithmId::kSiftCascade,
        AlgorithmId::kAaSiftRatRace,  AlgorithmId::kRatRacePath,
        AlgorithmId::kCombinedLogStar, AlgorithmId::kCombinedSift,
    };
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {32, 128, 512};
    spec.trials = 60;
    spec.seed = 3;
    presets.push_back({"combined-weak",
                       "E5: weak-adversary column of the adversary matrix",
                       "the combiner inherits the weak-adversary speed of "
                       "its fast component (Theorem 4.1, Corollary 4.2)",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "landscape";
    for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
      // Register-based algorithms only: the hw-only native baseline has no
      // simulator form.
      if (algo::supports(algorithm.id, exec::Backend::kSim)) {
        spec.algorithms.push_back(algorithm.id);
      }
    }
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {8, 64, 512, 2048};
    spec.trials = 80;
    spec.seed = 31;
    presets.push_back({"landscape",
                       "E9: step-complexity landscape",
                       "the introduction's table: log n vs log k vs "
                       "log log k vs log* k, with space",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "adversary-matrix";
    for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
      if (algo::supports(algorithm.id, exec::Backend::kSim)) {
        spec.algorithms.push_back(algorithm.id);
      }
    }
    // Frozen to the crash-free schedulers the historical table used;
    // catalogue growth (e.g. the crash adversary) must not silently change
    // a frozen table.  Crash schedules live in the "crash" preset.
    spec.adversaries = {AdversaryId::kUniformRandom, AdversaryId::kRoundRobin,
                        AdversaryId::kSequential};
    spec.ks = {16, 128};
    spec.trials = 40;
    spec.seed = 7;
    spec.seed_policy = SeedPolicy::kPerCell;
    presets.push_back({"adversary-matrix",
                       "every algorithm under every crash-free scheduler",
                       "safety (exactly one winner) holds under all "
                       "schedules; step shapes persist across schedulers",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "crash";
    for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
      if (algo::supports(algorithm.id, exec::Backend::kSim)) {
        spec.algorithms.push_back(algorithm.id);
      }
    }
    spec.adversaries = {AdversaryId::kCrashAfterOps};
    spec.ks = {8, 64};
    spec.trials = 40;
    spec.seed = 17;
    spec.seed_policy = SeedPolicy::kPerCell;
    presets.push_back({"crash",
                       "failure injection: every algorithm under the "
                       "crash-after-ops scheduler",
                       "at-most-one-winner survives arbitrary crashes; "
                       "crashed runs report unfinished participants instead "
                       "of liveness violations",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "hw-smoke";
    spec.backends = {exec::Backend::kHw};
    for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
      // Diagnostic entries (the diverging watchdog witness) never elect;
      // enumerating them would poison a smoke table.
      if (algo::supports(algorithm.id, exec::Backend::kHw) &&
          !algorithm.diagnostic) {
        spec.algorithms.push_back(algorithm.id);
      }
    }
    spec.adversaries = {AdversaryId::kUniformRandom};  // ignored on hw
    spec.ks = {1, 2, 4, 8};
    spec.trials = 30;
    spec.seed = 7;
    presets.push_back({"hw-smoke",
                       "E10 companion: shared-ops per election on real "
                       "threads (all hw-capable algorithms vs native TAS)",
                       "exactly one winner under real hardware races; "
                       "register-based algorithms cost a small constant "
                       "factor over the native atomic baseline",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "paper-le";
    spec.algorithms = {AlgorithmId::kLogStarChain, AlgorithmId::kSiftCascade,
                       AlgorithmId::kRatRacePath, AlgorithmId::kCombinedSift};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {64, 256, 1024};
    spec.trials = 150;
    spec.seed = 2012;
    presets.push_back({"paper-le",
                       "the paper's leader-election headliners (trial-"
                       "throughput reference)",
                       "the four Section 2-4 constructions at the moderate-"
                       "to-high contention their bounds are about; also the "
                       "fixed workload perfbench times on the fresh, "
                       "pooled and batched trial paths",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "conformance";
    spec.algorithms = {AlgorithmId::kCombinedSift, AlgorithmId::kRatRacePath};
    spec.adversaries = {AdversaryId::kUniformRandom,
                        AdversaryId::kCrashAfterOps};
    spec.ks = {5};
    spec.trials = 6;
    spec.seed = 2718;
    spec.seed_policy = SeedPolicy::kPerCell;
    presets.push_back({"conformance",
                       "record/replay conformance corpus (mini adversarial-"
                       "schedule workload)",
                       "a recorded schedule replays bit-for-bit through "
                       "fresh sim, pooled sim, and the scheduled hw drive; "
                       "the source of the golden traces in tests/golden/",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "worstcase";
    spec.algorithms = {AlgorithmId::kLogStarChain, AlgorithmId::kSiftCascade,
                       AlgorithmId::kRatRacePath, AlgorithmId::kCombinedSift};
    spec.adversaries = {AdversaryId::kGeNeutralizer,
                        AdversaryId::kUniformRandom};
    spec.ks = {10};
    spec.trials = 12;
    spec.seed = 40961;
    spec.seed_policy = SeedPolicy::kPerCell;
    spec.step_limit = 200'000;
    presets.push_back({"worstcase",
                       "worst-case schedule hunt (attack + random "
                       "schedulers over the Section 2-4 headliners)",
                       "the adaptive neutralizer forces Theta(k) steps on "
                       "the weak-adversary chains while RatRace and the "
                       "combiner resist; `rts_bench --hunt` minimizes each "
                       "cell's worst trial into the tests/corpus/ regression "
                       "corpus",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "rmr";
    spec.algorithms = {AlgorithmId::kAbortableRace};
    spec.adversaries = {AdversaryId::kAbortAfterOps};
    spec.ks = {8};
    spec.rmrs = {rmr::RmrModel::kCC, rmr::RmrModel::kDSM};
    spec.trials = 60;
    spec.seed = 4840;  // arXiv:1805.04840
    spec.seed_policy = SeedPolicy::kPerCell;
    presets.push_back({"rmr",
                       "RMR accounting (CC vs DSM) over the abortable TAS "
                       "baseline under abort injection",
                       "per-trial remote-memory-reference totals under both "
                       "charging models; aborted callers return abort-or-"
                       "lose, and the tallies are bitwise-identical for any "
                       "--workers count",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "chaos";
    spec.algorithms = {AlgorithmId::kLogStarChain, AlgorithmId::kSiftCascade,
                       AlgorithmId::kRatRacePath, AlgorithmId::kCombinedSift};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {64, 256, 1024};
    spec.trials = 400;
    spec.seed = 8128;
    spec.seed_policy = SeedPolicy::kPerCell;
    presets.push_back({"chaos",
                       "checkpoint/resume torture workload (sim-only, many "
                       "cells, long enough to kill mid-run)",
                       "a campaign SIGKILLed mid-run and resumed with "
                       "--resume renders byte-identical jsonl/csv/table to "
                       "an uninterrupted run; the CI kill-resume gate runs "
                       "exactly this",
                       spec});
  }
  {
    CampaignSpec spec;
    spec.name = "quick";
    spec.algorithms = {AlgorithmId::kLogStarChain, AlgorithmId::kRatRacePath};
    spec.adversaries = {AdversaryId::kUniformRandom};
    spec.ks = {4, 16};
    spec.trials = 10;
    spec.seed = 1;
    presets.push_back({"quick",
                       "smoke: two algorithms, two contentions, ten trials",
                       "sanity only; not a paper table",
                       spec});
  }
  return presets;
}

}  // namespace

const std::vector<Preset>& all_presets() {
  static const std::vector<Preset> kPresets = build_presets();
  return kPresets;
}

const Preset* find_preset(std::string_view name) {
  for (const Preset& preset : all_presets()) {
    if (name == preset.name) return &preset;
  }
  return nullptr;
}

}  // namespace rts::campaign
