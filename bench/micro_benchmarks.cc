// Google-benchmark microbenchmarks for the hot CPU paths: differential
// computation/merge, spare codec, CRC (dispatched and portable), the flash
// emulator's cell programming, the full PDL read/write paths and the buffer
// pool's hit and miss paths. These
// measure *host CPU* cost (the emulator's virtual-time model is separate);
// they exist to show the differential computation overhead the paper calls
// "relatively minor".

#include <benchmark/benchmark.h>

#include <cstring>

#include "common/crc32.h"
#include "common/random.h"
#include "flash/flash_device.h"
#include "ftl/spare_codec.h"
#include "methods/opu_store.h"
#include "pdl/differential.h"
#include "pdl/pdl_store.h"
#include "storage/buffer_pool.h"

using namespace flashdb;

namespace {

ByteBuffer RandomPage(size_t n, uint64_t seed) {
  ByteBuffer p(n);
  Random r(seed);
  r.Fill(p);
  return p;
}

void BM_ComputeDifferential(benchmark::State& state) {
  const size_t kPage = 2048;
  const int changed = static_cast<int>(state.range(0));
  ByteBuffer base = RandomPage(kPage, 1);
  ByteBuffer upd = base;
  Random r(2);
  for (int i = 0; i < changed; ++i) upd[r.Uniform(kPage)] ^= 0xFF;
  for (auto _ : state) {
    pdl::Differential d = pdl::ComputeDifferential(base, upd, 1, 1);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPage);
}
BENCHMARK(BM_ComputeDifferential)->Arg(1)->Arg(16)->Arg(64)->Arg(512);

// The shapes the word-at-a-time equal-run scanner targets: a fully unchanged
// page (pure scan, the n/8 best case) and the paper's workload shape (one
// contiguous changed run of %ChangedByOneU_Op, mostly-equal page around it).
void BM_ComputeDifferentialUnchanged(benchmark::State& state) {
  const size_t kPage = 2048;
  ByteBuffer base = RandomPage(kPage, 1);
  ByteBuffer upd = base;
  for (auto _ : state) {
    pdl::Differential d = pdl::ComputeDifferential(base, upd, 1, 1);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPage);
}
BENCHMARK(BM_ComputeDifferentialUnchanged);

void BM_ComputeDifferentialContiguous(benchmark::State& state) {
  const size_t kPage = 2048;
  const size_t run = static_cast<size_t>(state.range(0));
  ByteBuffer base = RandomPage(kPage, 1);
  ByteBuffer upd = base;
  const size_t offset = kPage / 3;
  for (size_t i = 0; i < run; ++i) upd[offset + i] ^= 0xFF;
  // Reuse one Differential across iterations: the steady-state hot path
  // (PdlStore's scratch) recomputes into existing capacity.
  pdl::Differential d;
  for (auto _ : state) {
    pdl::ComputeDifferentialInto(base, upd, 1, 1, pdl::kExtentHeaderSize, &d);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPage);
}
BENCHMARK(BM_ComputeDifferentialContiguous)->Arg(41)->Arg(256);

void BM_ApplyDifferential(benchmark::State& state) {
  const size_t kPage = 2048;
  ByteBuffer base = RandomPage(kPage, 1);
  ByteBuffer upd = base;
  Random r(2);
  for (int i = 0; i < 64; ++i) upd[r.Uniform(kPage)] ^= 0xFF;
  pdl::Differential d = pdl::ComputeDifferential(base, upd, 1, 1);
  ByteBuffer page = base;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.ApplyTo(page));
  }
}
BENCHMARK(BM_ApplyDifferential);

void BM_SerializeParseDifferential(benchmark::State& state) {
  const size_t kPage = 2048;
  ByteBuffer base = RandomPage(kPage, 1);
  ByteBuffer upd = base;
  Random r(2);
  for (int i = 0; i < 32; ++i) upd[r.Uniform(kPage)] ^= 0xFF;
  pdl::Differential d = pdl::ComputeDifferential(base, upd, 1, 1);
  for (auto _ : state) {
    ByteBuffer buf;
    d.AppendTo(&buf);
    buf.resize(kPage, 0xFF);
    BufferReader reader(buf);
    pdl::Differential parsed;
    Status st;
    benchmark::DoNotOptimize(pdl::Differential::ParseNext(&reader, &parsed, &st));
  }
}
BENCHMARK(BM_SerializeParseDifferential);

void BM_SpareCodec(benchmark::State& state) {
  ByteBuffer spare(64, 0xFF);
  for (auto _ : state) {
    ftl::EncodeSpare(spare, ftl::PageType::kBase, 1234, 567890);
    benchmark::DoNotOptimize(ftl::DecodeSpare(spare));
    std::fill(spare.begin(), spare.end(), 0xFF);
  }
}
BENCHMARK(BM_SpareCodec);

void BM_Crc32c(benchmark::State& state) {
  ByteBuffer data = RandomPage(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(2048)->Arg(4096);

// The table-driven fallback Crc32c takes on hosts without SSE4.2.
void BM_Crc32cPortable(benchmark::State& state) {
  ByteBuffer data = RandomPage(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cPortable(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(2048);

// Runs `op(dev, addr)` on every page of a 16-block chip in order, erasing the
// chip (untimed) when it is full, so each timed program is a first program.
template <typename Op>
void SweepFreshPages(benchmark::State& state, Op op) {
  flash::FlashConfig cfg = flash::FlashConfig::Small(16);
  flash::FlashDevice dev(cfg);
  uint32_t i = 0;
  const uint32_t total = cfg.geometry.total_pages();
  for (auto _ : state) {
    if (i == total) {
      state.PauseTiming();
      for (uint32_t b = 0; b < cfg.geometry.num_blocks; ++b) {
        (void)dev.EraseBlock(b);
      }
      i = 0;
      state.ResumeTiming();
    }
    op(dev, i);
    ++i;
  }
}

// Full data + spare first program: the strict 0->1 check and the AND over
// one page's cells.
void BM_EmulatorFirstProgram(benchmark::State& state) {
  const flash::FlashGeometry g = flash::FlashConfig::Small(16).geometry;
  const ByteBuffer page = RandomPage(g.data_size, 4);
  const ByteBuffer spare = RandomPage(g.spare_size, 5);
  SweepFreshPages(state, [&](flash::FlashDevice& dev, flash::PhysAddr addr) {
    benchmark::DoNotOptimize(dev.ProgramPage(addr, page, spare));
  });
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (g.data_size + g.spare_size));
}
BENCHMARK(BM_EmulatorFirstProgram);

void BM_EmulatorProgramReadErase(benchmark::State& state) {
  const flash::FlashGeometry g = flash::FlashConfig::Small(16).geometry;
  const ByteBuffer page = RandomPage(g.data_size, 4);
  ByteBuffer out(g.data_size);
  SweepFreshPages(state, [&](flash::FlashDevice& dev, flash::PhysAddr addr) {
    benchmark::DoNotOptimize(dev.ProgramPage(addr, page, {}));
    benchmark::DoNotOptimize(dev.ReadPage(addr, out, {}));
  });
}
BENCHMARK(BM_EmulatorProgramReadErase);

void BM_PdlWriteBack(benchmark::State& state) {
  flash::FlashDevice dev(flash::FlashConfig::Small(64));
  pdl::PdlConfig cfg;
  cfg.max_differential_size = static_cast<uint32_t>(state.range(0));
  pdl::PdlStore store(&dev, cfg);
  const uint32_t pages = 1024;
  (void)store.Format(pages, nullptr, nullptr);
  ByteBuffer page(dev.geometry().data_size, 0);
  Random r(5);
  for (auto _ : state) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    (void)store.ReadPage(pid, page);
    page[r.Uniform(page.size())] ^= 0x5A;
    benchmark::DoNotOptimize(store.WriteBack(pid, page));
  }
}
BENCHMARK(BM_PdlWriteBack)->Arg(256)->Arg(2048);

// PDL_Reading of pids whose differentials were flushed: a verified base
// page read, a verified differential page read, then the in-place lookup
// and merge. 64 small differentials share a handful of differential pages.
void BM_PdlReadPage(benchmark::State& state) {
  flash::FlashDevice dev(flash::FlashConfig::Small(64));
  pdl::PdlStore store(&dev, pdl::PdlConfig{});
  const uint32_t pages = 1024;
  (void)store.Format(pages, nullptr, nullptr);
  ByteBuffer page(dev.geometry().data_size, 0);
  Random r(6);
  const PageId kDiffed = 64;
  for (PageId pid = 0; pid < kDiffed; ++pid) {
    for (int i = 0; i < 16; ++i) page[r.Uniform(page.size())] ^= 0x5A;
    (void)store.WriteBack(pid, page);
    std::fill(page.begin(), page.end(), 0);
  }
  (void)store.Flush();
  PageId pid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ReadPage(pid, page));
    pid = (pid + 1) % kDiffed;
  }
}
BENCHMARK(BM_PdlReadPage);

void BM_OpuWriteBack(benchmark::State& state) {
  flash::FlashDevice dev(flash::FlashConfig::Small(64));
  methods::OpuStore store(&dev);
  const uint32_t pages = 1024;
  (void)store.Format(pages, nullptr, nullptr);
  ByteBuffer page(dev.geometry().data_size, 0);
  Random r(5);
  for (auto _ : state) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    (void)store.ReadPage(pid, page);
    page[r.Uniform(page.size())] ^= 0x5A;
    benchmark::DoNotOptimize(store.WriteBack(pid, page));
  }
}
BENCHMARK(BM_OpuWriteBack);

// Buffer pool over OPU: 1024 logical pages, 128 frames.
constexpr uint32_t kPoolPages = 1024;
constexpr uint32_t kPoolFrames = 128;

// ReadPage hits: every pid drawn is resident.
void BM_BufferPoolReadHit(benchmark::State& state) {
  flash::FlashDevice dev(flash::FlashConfig::Small(64));
  methods::OpuStore store(&dev);
  (void)store.Format(kPoolPages, nullptr, nullptr);
  storage::BufferPool pool(&store, kPoolFrames);
  uint64_t sum = 0;
  auto read = [&](ConstBytes p) {
    sum += p[sum % p.size()];
    return Status::OK();
  };
  for (PageId pid = 0; pid < kPoolFrames; ++pid) (void)pool.ReadPage(pid, read);
  Random r(7);
  for (auto _ : state) {
    const PageId pid = static_cast<PageId>(r.Uniform(kPoolFrames));
    benchmark::DoNotOptimize(pool.ReadPage(pid, read));
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_BufferPoolReadHit);

// WithPage hits changing 8 bytes: snapshot, diff, update log, OnUpdate.
void BM_BufferPoolWithPage(benchmark::State& state) {
  flash::FlashDevice dev(flash::FlashConfig::Small(64));
  methods::OpuStore store(&dev);
  (void)store.Format(kPoolPages, nullptr, nullptr);
  storage::BufferPool pool(&store, kPoolFrames);
  Random r(8);
  for (PageId pid = 0; pid < kPoolFrames; ++pid) {
    (void)pool.ReadPage(pid, [](ConstBytes) { return Status::OK(); });
  }
  for (auto _ : state) {
    const PageId pid = static_cast<PageId>(r.Uniform(kPoolFrames));
    const uint64_t value = r.Next();
    const size_t offset = r.Uniform(dev.geometry().data_size / 8) * 8;
    benchmark::DoNotOptimize(pool.WithPage(pid, [&](MutBytes p) {
      std::memcpy(p.data() + offset, &value, sizeof(value));
      return Status::OK();
    }));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BufferPoolWithPage);

// A cyclic sweep over 8x more pages than frames: every ReadPage misses and
// evicts the least recently used (clean) frame, then reads from flash.
void BM_BufferPoolMissEvict(benchmark::State& state) {
  flash::FlashDevice dev(flash::FlashConfig::Small(64));
  methods::OpuStore store(&dev);
  (void)store.Format(kPoolPages, nullptr, nullptr);
  storage::BufferPool pool(&store, kPoolFrames);
  uint64_t sum = 0;
  auto read = [&](ConstBytes p) {
    sum += p[0];
    return Status::OK();
  };
  PageId pid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ReadPage(pid, read));
    pid = (pid + 1) % kPoolPages;
  }
  benchmark::DoNotOptimize(sum);
  state.counters["hit_rate"] = pool.stats().hit_rate();
}
BENCHMARK(BM_BufferPoolMissEvict);

}  // namespace

BENCHMARK_MAIN();
