// Micro-benchmarks (google-benchmark): serialization layer throughput — the
// plumbing every shuffle byte passes through.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "serde/checksum.hpp"
#include "serde/kv.hpp"
#include "serde/serde.hpp"

namespace asyncmr::serde {
namespace {

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(4096);
  for (auto& v : values) v = rng.Next() >> rng.NextBounded(64);
  for (auto _ : state) {
    Buffer buf;
    Writer w(buf);
    for (uint64_t v : values) w.WriteVarU64(v);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  Rng rng(1);
  Buffer buf;
  Writer w(buf);
  for (int i = 0; i < 4096; ++i) w.WriteVarU64(rng.Next() >> rng.NextBounded(64));
  for (auto _ : state) {
    Reader r(buf);
    uint64_t v = 0;
    while (!r.AtEnd()) {
      (void)r.ReadVarU64(v);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_VarintDecode);

void BM_KvStreamWrite(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    KvWriter<uint32_t, double> w;
    for (size_t i = 0; i < n; ++i) w.Add(static_cast<uint32_t>(i), 0.5 * i);
    Buffer buf = std::move(w).Finish();
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KvStreamWrite)->Range(1 << 10, 1 << 16);

void BM_KvStreamRead(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  KvWriter<uint32_t, double> w;
  for (size_t i = 0; i < n; ++i) w.Add(static_cast<uint32_t>(i), 0.5 * i);
  const Buffer buf = std::move(w).Finish();
  for (auto _ : state) {
    KvReader<uint32_t, double> r(buf);
    uint32_t k = 0;
    double v = 0.0;
    uint64_t sum = 0;
    while (r.Next(k, v)) sum += k;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KvStreamRead)->Range(1 << 10, 1 << 16);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Range(1 << 12, 1 << 20);

}  // namespace
}  // namespace asyncmr::serde

BENCHMARK_MAIN();
