// google-benchmark microbenchmarks for the data-structure and algorithm
// hot paths: tree construction throughput per model, prediction latency,
// the SmallChildMap representation ablation, and the space-optimisation
// pass cost.
#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "core/webppm.hpp"
#include "util/small_map.hpp"

namespace {

using namespace webppm;

const std::vector<session::Session>& training_sessions() {
  static const auto sessions = [] {
    const auto trace =
        workload::generate_page_trace(workload::nasa_like(3, 0.5));
    return session::extract_sessions(trace.requests);
  }();
  return sessions;
}

const popularity::PopularityTable& grades() {
  static const auto table = [] {
    const auto trace =
        workload::generate_page_trace(workload::nasa_like(3, 0.5));
    return popularity::PopularityTable::build(trace.requests,
                                              trace.urls.size());
  }();
  return table;
}

std::size_t total_clicks() {
  static const std::size_t n = [] {
    std::size_t c = 0;
    for (const auto& s : training_sessions()) c += s.length();
    return c;
  }();
  return n;
}

void BM_TrainStandardUnbounded(benchmark::State& state) {
  for (auto _ : state) {
    ppm::StandardPpm m;
    m.train(training_sessions());
    benchmark::DoNotOptimize(m.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_clicks()));
}
BENCHMARK(BM_TrainStandardUnbounded)->Unit(benchmark::kMillisecond);

void BM_TrainStandard3(benchmark::State& state) {
  ppm::StandardPpmConfig cfg;
  cfg.max_height = 3;
  for (auto _ : state) {
    ppm::StandardPpm m(cfg);
    m.train(training_sessions());
    benchmark::DoNotOptimize(m.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_clicks()));
}
BENCHMARK(BM_TrainStandard3)->Unit(benchmark::kMillisecond);

void BM_TrainLrs(benchmark::State& state) {
  for (auto _ : state) {
    ppm::LrsPpm m;
    m.train(training_sessions());
    benchmark::DoNotOptimize(m.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_clicks()));
}
BENCHMARK(BM_TrainLrs)->Unit(benchmark::kMillisecond);

/// PB-PPM's whole training path: PbBase insert, then emit (the frozen
/// payload PB serves from).
std::string train_popularity() {
  ppm::PbBase base(ppm::PopularityPpmConfig{}, &grades());
  base.insert(training_sessions());
  return base.emit();
}

void BM_TrainPopularity(benchmark::State& state) {
  for (auto _ : state) {
    const std::string payload = train_popularity();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_clicks()));
}
BENCHMARK(BM_TrainPopularity)->Unit(benchmark::kMillisecond);

void BM_PredictPopularity(benchmark::State& state) {
  const auto m = frozen::FrozenModel::open(train_popularity());
  const auto& sessions = training_sessions();
  std::vector<ppm::Prediction> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& s = sessions[i++ % sessions.size()];
    m->predict(s.urls, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PredictPopularity);

void BM_PredictStandard(benchmark::State& state) {
  ppm::StandardPpm m;
  m.train(training_sessions());
  const auto& sessions = training_sessions();
  std::vector<ppm::Prediction> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& s = sessions[i++ % sessions.size()];
    m.predict(s.urls, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PredictStandard);

// --- incremental (train_more) vs full retrain ----------------------------
// The sweep engine advances a model by one day instead of retraining the
// window; these measure that append path against the full-train benchmarks
// above. The split is half/half, so the append pass handles the same click
// volume as the full pass but starts from an already-populated model.

void BM_TrainMoreStandard(benchmark::State& state) {
  const auto& sessions = training_sessions();
  const std::span half_a(sessions.data(), sessions.size() / 2);
  const std::span half_b(sessions.data() + sessions.size() / 2,
                         sessions.size() - sessions.size() / 2);
  for (auto _ : state) {
    state.PauseTiming();
    ppm::StandardPpm m;
    m.train(half_a);
    state.ResumeTiming();
    m.train_more(half_b);
    benchmark::DoNotOptimize(m.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_clicks() / 2));
}
BENCHMARK(BM_TrainMoreStandard)->Unit(benchmark::kMillisecond);

void BM_TrainMoreLrs(benchmark::State& state) {
  const auto& sessions = training_sessions();
  const std::span half_a(sessions.data(), sessions.size() / 2);
  const std::span half_b(sessions.data() + sessions.size() / 2,
                         sessions.size() - sessions.size() / 2);
  for (auto _ : state) {
    state.PauseTiming();
    ppm::LrsPpm m;
    m.train(half_a);
    state.ResumeTiming();
    // Includes the per-window pattern re-extraction and tree rebuild the
    // engine pays at every sweep point.
    m.train_more(half_b);
    benchmark::DoNotOptimize(m.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_clicks() / 2));
}
BENCHMARK(BM_TrainMoreLrs)->Unit(benchmark::kMillisecond);

void BM_SpaceOptimization(benchmark::State& state) {
  // The space optimisation is applied by the emit walk over the unpruned
  // base: it visits only the surviving nodes and their children, and
  // writes them straight into the frozen payload.
  ppm::PbBase base(ppm::PopularityPpmConfig{}, &grades());
  base.insert(training_sessions());
  for (auto _ : state) {
    const std::string payload = base.emit();
    benchmark::DoNotOptimize(payload.data());
  }
}
BENCHMARK(BM_SpaceOptimization)->Unit(benchmark::kMillisecond);

// --- child-map representation ablation -----------------------------------
// The prediction tree's per-node child container is the dominant memory
// and lookup cost. Compare SmallChildMap against std::unordered_map on the
// skewed fan-out pattern trees actually see.

template <typename Map>
void child_map_workload(benchmark::State& state) {
  util::Rng rng(42);
  const auto fanout = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Map m;
    for (std::uint32_t i = 0; i < fanout; ++i) {
      m[static_cast<std::uint32_t>(rng.below(fanout * 2))] = i;
    }
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < fanout * 4; ++i) {
      if (const auto* v = [&]() -> const std::uint32_t* {
            const auto key = static_cast<std::uint32_t>(rng.below(fanout * 2));
            if constexpr (requires { m.find(key) == m.end(); }) {
              const auto it = m.find(key);
              return it == m.end() ? nullptr : &it->second;
            } else {
              return m.find(key);
            }
          }()) {
        sum += *v;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fanout * 5);
}

void BM_SmallChildMap(benchmark::State& state) {
  child_map_workload<util::SmallChildMap<std::uint32_t>>(state);
}
BENCHMARK(BM_SmallChildMap)->Arg(2)->Arg(4)->Arg(16)->Arg(256);

void BM_UnorderedChildMap(benchmark::State& state) {
  child_map_workload<std::unordered_map<std::uint32_t, std::uint32_t>>(state);
}
BENCHMARK(BM_UnorderedChildMap)->Arg(2)->Arg(4)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
